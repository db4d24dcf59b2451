package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// newEagerManager is the reference construction the first-touch manager
// must match: every node's policy, rules, seed stream and pending map
// built up front, in node order.
func newEagerManager(cfg Config, store MetaStore, rng *stats.RNG, deferFn DeferFunc) *Manager {
	n := store.N()
	m := &Manager{
		cfg:      cfg,
		store:    store,
		policies: make([]*ReplicaCache, n),
		deferFn:  deferFn,
		pending:  make([]map[dfs.BlockID]*pendingAdd, n),
	}
	budget := int64(cfg.BudgetFraction * float64(store.TotalPrimaryBytes()) / float64(n))
	merged := mergedRuleSet(cfg.Kind, cfg.P, cfg.Threshold, cfg.Rules)
	for i := 0; i < n; i++ {
		m.pending[i] = make(map[dfs.BlockID]*pendingAdd)
		rules, err := merged.CompileWith(rng.Split(uint64(i) + 1))
		if err != nil {
			if i == 0 {
				m.errs = append(m.errs, fmt.Errorf("core: compile policy rules: %w", err))
			}
			rules = policy.ReplicationRules{}
		}
		m.policies[i] = newReplicaCache(cfg.Kind, budget, withBuiltins(cfg.Kind, cfg.P, cfg.Threshold, rules, nil), m.nowFn)
	}
	return m
}

type lazyKind struct {
	name string
	cfg  Config
}

// lazyKinds is every per-node policy configuration the manager builds,
// including the bandit admission rules of configs/bandit.json.
func lazyKinds(t *testing.T) []lazyKind {
	t.Helper()
	set, err := config.LoadPolicy(filepath.Join("..", "..", "configs", "bandit.json"))
	if err != nil {
		t.Fatal(err)
	}
	base := Config{P: 0.3, Threshold: 1, BudgetFraction: 0.5, AnnounceDelay: 1, LazyDeleteDelay: 1}
	var kinds []lazyKind
	for _, kind := range []PolicyKind{NonePolicy, GreedyLRUPolicy, GreedyLFUPolicy, ElephantTrapPolicy} {
		cfg := base
		cfg.Kind = kind
		kinds = append(kinds, lazyKind{kind.String(), cfg})
	}
	bandit := base
	bandit.Kind = ElephantTrapPolicy
	bandit.Rules = set.Spec.Replication
	return append(kinds, lazyKind{"bandit", bandit})
}

// lazyWorld is a name node with files on it, an engine for the deferred
// announces and evictions, and a manager; two worlds built with the same
// seed hold identical name nodes.
type lazyWorld struct {
	eng *sim.Engine
	nn  *dfs.NameNode
	mgr *Manager
}

const lazyNodes = 40

func newLazyWorld(t *testing.T, cfg Config, eager bool) *lazyWorld {
	t.Helper()
	topo := topology.NewDedicated(lazyNodes, 8, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 3, stats.NewRNG(21))
	for i := 0; i < 6; i++ {
		if _, err := nn.CreateFile(fmt.Sprintf("f%d", i), 12, 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	w := &lazyWorld{eng: sim.NewEngine(), nn: nn}
	build := NewManager
	if eager {
		build = newEagerManager
	}
	w.mgr = build(cfg, nn, stats.NewRNG(22), w.eng.Defer)
	w.mgr.SetNow(w.eng.Now)
	return w
}

// drive replays one seeded sequence of map tasks on a subset of the
// nodes, then runs the engine partway so some announces stay pending.
func (w *lazyWorld) drive(seed uint64) {
	g := stats.NewRNG(seed)
	touched := g.Perm(lazyNodes)[:lazyNodes/4]
	for i := 0; i < 300; i++ {
		node := topology.NodeID(touched[g.Intn(len(touched))])
		b := dfs.BlockID(g.Intn(w.nn.Blocks()))
		f := w.nn.Block(b).File
		w.mgr.OnMapTask(node, b, f, 100, w.nn.HasReplica(b, node))
		if i%50 == 49 {
			w.eng.RunUntil(w.eng.Now() + 0.5)
		}
	}
}

func encodeManager(t *testing.T, m *Manager) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := m.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

func builtNodes(m *Manager) int {
	n := 0
	for _, p := range m.policies {
		if p != nil {
			n++
		}
	}
	return n
}

func TestLazyManagerImageMatchesEager(t *testing.T) {
	for _, k := range lazyKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			cfg := k.cfg
			lazy := newLazyWorld(t, cfg, false)
			eager := newLazyWorld(t, cfg, true)
			if got := builtNodes(lazy.mgr); got != 1 {
				t.Fatalf("a fresh manager built %d nodes, want only node 0", got)
			}
			if !bytes.Equal(encodeManager(t, lazy.mgr), encodeManager(t, eager.mgr)) {
				t.Fatal("untouched image differs from the eager one")
			}

			lazy = newLazyWorld(t, cfg, false)
			lazy.drive(5)
			eager.drive(5)
			if got := builtNodes(lazy.mgr); got > lazyNodes/4+1 {
				t.Fatalf("driving a quarter of the nodes built %d of %d", got, lazyNodes)
			}
			if lazy.mgr.TotalStats() != eager.mgr.TotalStats() || lazy.mgr.UsedBytes() != eager.mgr.UsedBytes() {
				t.Fatalf("counters differ: lazy %+v/%d, eager %+v/%d", lazy.mgr.TotalStats(), lazy.mgr.UsedBytes(),
					eager.mgr.TotalStats(), eager.mgr.UsedBytes())
			}
			if cfg.Kind != NonePolicy && eager.mgr.TotalStats().ReplicasCreated == 0 {
				t.Fatal("the map tasks created no replica")
			}
			img := encodeManager(t, eager.mgr)
			if !bytes.Equal(encodeManager(t, lazy.mgr), img) {
				t.Fatal("image after map tasks differs from the eager one")
			}

			fresh := newLazyWorld(t, cfg, false)
			d := snapshot.NewDec(img)
			if err := fresh.mgr.WalkState(snapshot.WalkDec(d)); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeManager(t, fresh.mgr), img) {
				t.Fatal("image re-encoded after decoding differs")
			}
		})
	}
}

func TestLazyManagerDecodesAnnounceForUntouchedNode(t *testing.T) {
	for _, k := range lazyKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			cfg := k.cfg
			w := newLazyWorld(t, cfg, false)
			node := topology.NodeID(lazyNodes - 1)
			var b dfs.BlockID
			for w.nn.HasReplica(b, node) {
				b++
			}
			for _, canceled := range []bool{true, false} {
				e := snapshot.NewEnc()
				(&announceTag{node: node, block: b, pa: &pendingAdd{canceled: canceled}}).WalkTag(snapshot.WalkEnc(e))
				_, fn, err := w.mgr.DecodeEvent(TagAnnounce, snapshot.WalkDec(snapshot.NewDec(e.Data())))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := w.mgr.pending[node][b]; ok == canceled {
					t.Fatalf("canceled=%v: pending entry present=%v", canceled, ok)
				}
				fn()
			}
			if !w.nn.HasReplica(b, node) {
				t.Fatal("restored announce did not register the replica")
			}
			if len(w.mgr.Errors()) != 0 {
				t.Fatal(w.mgr.Errors())
			}
		})
	}
}
