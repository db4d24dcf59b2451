package core

import (
	"errors"
	"fmt"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/stats"
	"dare/internal/topology"
)

// Config selects and parameterizes the DARE policy for a cluster run.
// The defaults mirror the paper's headline configuration (§V, Fig. 7):
// ElephantTrap with p = 0.3, threshold = 1, budget = 0.2.
type Config struct {
	Kind PolicyKind `json:"kind"`
	// P is the ElephantTrap sampling probability.
	P float64 `json:"p,omitempty"`
	// Threshold is the ElephantTrap aging threshold.
	Threshold int64 `json:"threshold,omitempty"`
	// BudgetFraction bounds dynamic-replica storage as a fraction of the
	// cluster's average per-node primary bytes (§IV: "a value between 10%
	// and 20% is reasonable").
	BudgetFraction float64 `json:"budgetFraction,omitempty"`
	// AnnounceDelay is the seconds between a replication decision and the
	// name node learning about the new replica (it is piggybacked on the
	// next heartbeat, §IV-B).
	AnnounceDelay float64 `json:"announceDelay,omitempty"`
	// LazyDeleteDelay is the seconds between marking a victim and its
	// actual removal ("blocks marked for deletion are lazily removed to
	// avoid conflicting with other operations", §IV-B).
	LazyDeleteDelay float64 `json:"lazyDeleteDelay,omitempty"`

	// Scarlett-only knobs (ignored by the DARE policies): the epoch
	// length in seconds, the accesses-per-extra-replica quota, and the
	// cap on extra replicas per block.
	Epoch              float64 `json:"epoch,omitempty"`
	AccessesPerReplica float64 `json:"accessesPerReplica,omitempty"`
	MaxExtraReplicas   int     `json:"maxExtraReplicas,omitempty"`

	// Rules optionally overrides the kind's built-in decision rules
	// (loaded from a -policy-file config). Non-nil fields replace the
	// corresponding built-in: Admit gates replication admission (for
	// Scarlett, the epoch grow gate), Victim and Aged gate eviction
	// candidates. Nil means the kind's historical hard-coded behavior,
	// which the built-in rule sets reproduce decision for decision.
	Rules *policy.RuleSet `json:"rules,omitempty"`
}

// DefaultConfig returns the paper's headline DARE configuration.
func DefaultConfig() Config {
	return Config{
		Kind:            ElephantTrapPolicy,
		P:               0.3,
		Threshold:       1,
		BudgetFraction:  0.2,
		AnnounceDelay:   1.0,
		LazyDeleteDelay: 1.0,
	}
}

// MetaStore is the slice of the name node the Manager needs. *dfs.NameNode
// implements it.
type MetaStore interface {
	HasReplica(b dfs.BlockID, node topology.NodeID) bool
	AddDynamicReplica(b dfs.BlockID, node topology.NodeID) error
	RemoveDynamicReplica(b dfs.BlockID, node topology.NodeID) error
	TotalPrimaryBytes() int64
	N() int
}

// DeferFunc schedules fn to run after delay seconds of simulated time.
// The simulation engine's Schedule method has this shape.
type DeferFunc func(delay float64, fn func())

// pendingAdd tracks a replica created locally but not yet announced to the
// name node; an eviction arriving before the announce simply cancels it.
type pendingAdd struct{ canceled bool }

// Manager instantiates one ReplicaCache per data node and applies their
// decisions to the name node, modelling the heartbeat announce delay and
// lazy deletion. It is the component a modified Hadoop DataNode would
// embed (the paper's 228-line patch, §V-A).
//
// Node policies are built on first touch (see node): the patch only acts
// when its node runs a map task, and on a large cluster most nodes never
// do. A nil policies[i] is a node nothing has needed yet.
type Manager struct {
	cfg      Config
	store    MetaStore
	policies []*ReplicaCache
	deferFn  DeferFunc
	// tagDefer, when set (SetTagDefer), replaces deferFn with a scheduler
	// that records a serializable tag alongside the deferred closure, so
	// in-flight announces/evictions survive a state-image checkpoint.
	tagDefer TagDeferFunc
	pending  []map[dfs.BlockID]*pendingAdd
	now      func() float64
	// errs records unexpected metadata failures; a correct run has none.
	errs []error

	// What node needs to build a policy: the per-node budget fixed at
	// construction, the merged rule spec, and the root stream node i's
	// rules split from.
	budget   int64
	ruleSpec policy.RuleSet
	rng      *stats.RNG
}

// NewManager sets up per-node policies for every data node in store. The
// per-node budget is BudgetFraction × (total primary bytes / nodes),
// computed from the store's current contents — create the input files
// before the manager. rng seeds the per-node probabilistic policies:
// node i's rule set compiles against rng.Split(i+1), and the first
// stateful rule in the set (ElephantTrap's sampling coin) consumes that
// stream directly — the same stream, same draws, as the pre-rule
// implementation.
//
// Only node 0 is built here, so a rule-compile error surfaces at
// construction; every other node is built when first needed. Split is a
// pure function of (seed, label), so the build order changes no draw.
func NewManager(cfg Config, store MetaStore, rng *stats.RNG, deferFn DeferFunc) *Manager {
	n := store.N()
	m := &Manager{
		cfg:      cfg,
		store:    store,
		policies: make([]*ReplicaCache, n),
		deferFn:  deferFn,
		pending:  make([]map[dfs.BlockID]*pendingAdd, n),
		budget:   int64(cfg.BudgetFraction * float64(store.TotalPrimaryBytes()) / float64(n)),
		ruleSpec: mergedRuleSet(cfg.Kind, cfg.P, cfg.Threshold, cfg.Rules),
		rng:      rng,
	}
	if n > 0 {
		m.node(0)
	}
	return m
}

// node returns node i's policy, building it (policy, compiled rules,
// seed stream and pending-announce map) on first use.
func (m *Manager) node(i topology.NodeID) *ReplicaCache {
	if p := m.policies[i]; p != nil {
		return p
	}
	rules, err := m.ruleSpec.CompileWith(m.rng.Split(uint64(i) + 1))
	if err != nil {
		// Config rules are validated at load time, so this is
		// defensive: record once (node 0 is built by NewManager) and
		// fall back to the built-ins.
		if i == 0 {
			m.errs = append(m.errs, fmt.Errorf("core: compile policy rules: %w", err))
		}
		rules = withBuiltins(m.cfg.Kind, m.cfg.P, m.cfg.Threshold, policy.ReplicationRules{}, nil)
	}
	p := newReplicaCache(m.cfg.Kind, m.budget, rules, m.nowFn)
	m.policies[i] = p
	m.pending[i] = make(map[dfs.BlockID]*pendingAdd)
	return p
}

// buildAll builds every node nothing has touched yet; the state codec
// walks all nodes.
func (m *Manager) buildAll() {
	for i := range m.policies {
		m.node(topology.NodeID(i))
	}
}

// SetNow supplies the simulated clock to time-aware policy rules (the
// rate-window and bandit combinators). Decisions made before any SetNow
// read time 0.
func (m *Manager) SetNow(now func() float64) { m.now = now }

// nowFn is the clock handed to per-node policies; it indirects through
// m.now so SetNow works after construction.
func (m *Manager) nowFn() float64 {
	if m.now == nil {
		return 0
	}
	return m.now()
}

// Policy exposes the per-node policy (testing, introspection).
func (m *Manager) Policy(node topology.NodeID) *ReplicaCache { return m.node(node) }

// Errors returns metadata failures observed while applying decisions.
func (m *Manager) Errors() []error { return m.errs }

// Kinds implements event.KindFilter: the manager hears task launches only.
func (m *Manager) Kinds() []event.Kind { return []event.Kind{event.TaskLaunch} }

// HandleEvent implements event.Subscriber: the manager reacts to map-task
// launches on the cluster bus (reduce launches carry Block = -1 and have
// no input block to replicate, so they are ignored).
func (m *Manager) HandleEvent(ev event.Event) {
	if ev.Kind != event.TaskLaunch || ev.Block < 0 {
		return
	}
	m.OnMapTask(topology.NodeID(ev.Node), dfs.BlockID(ev.Block), dfs.FileID(ev.File), ev.Aux, ev.Flag)
}

// OnMapTask reports to node's policy that a map task reading block b
// (size bytes, of file f) was scheduled there, with the given locality,
// and applies the resulting decision.
func (m *Manager) OnMapTask(node topology.NodeID, b dfs.BlockID, f dfs.FileID, size int64, local bool) {
	d := m.node(node).OnMapTask(b, f, size, local)
	for _, victim := range d.Evict {
		m.evict(node, victim)
	}
	if d.Replicate {
		m.announce(node, b)
	}
}

// announce registers the new dynamic replica with the name node after the
// heartbeat delay, unless an eviction cancels it first.
func (m *Manager) announce(node topology.NodeID, b dfs.BlockID) {
	m.node(node)
	pa := &pendingAdd{}
	m.pending[node][b] = pa
	m.deferredTag(m.cfg.AnnounceDelay, &announceTag{node: node, block: b, pa: pa},
		m.announceFn(node, b, pa))
}

// announceFn is the deferred announce body, split out so a state-image
// restore can rebuild the identical closure around a decoded pendingAdd.
func (m *Manager) announceFn(node topology.NodeID, b dfs.BlockID, pa *pendingAdd) func() {
	return func() {
		if pa.canceled {
			return
		}
		delete(m.pending[node], b)
		if m.store.HasReplica(b, node) {
			return // someone registered it meanwhile; nothing to do
		}
		if err := m.store.AddDynamicReplica(b, node); err != nil {
			if errors.Is(err, dfs.ErrNodeDown) {
				return // the node died with the replica; nothing to announce
			}
			if errors.Is(err, dfs.ErrMasterDown) {
				// The heartbeat carrying the announce got no answer. Real
				// DataNodes re-announce in the next full block report; here the
				// replica simply stays local-only (the policy already counts
				// it) and the post-recovery report path re-learns the disk.
				return
			}
			m.errs = append(m.errs, fmt.Errorf("core: announce block %d at node %d: %w", b, node, err))
		}
	}
}

// evict removes a dynamic replica after the lazy-deletion delay; if the
// replica was never announced, the pending announce is canceled instead.
func (m *Manager) evict(node topology.NodeID, b dfs.BlockID) {
	if pa, ok := m.pending[node][b]; ok {
		pa.canceled = true
		delete(m.pending[node], b)
		return
	}
	m.deferredTag(m.cfg.LazyDeleteDelay, &evictTag{node: node, block: b}, m.evictFn(node, b))
}

// evictFn is the deferred lazy-delete body, split out so a state-image
// restore can rebuild the identical closure.
func (m *Manager) evictFn(node topology.NodeID, b dfs.BlockID) func() {
	return func() {
		if !m.store.HasReplica(b, node) {
			return // already gone
		}
		if err := m.store.RemoveDynamicReplica(b, node); err != nil {
			if errors.Is(err, dfs.ErrMasterDown) {
				// Lazy deletion proceeds on disk; the master never hearing
				// about a replica it will re-learn (or not) from block
				// reports is exactly the HDFS stale-replica case.
				return
			}
			m.errs = append(m.errs, fmt.Errorf("core: evict block %d at node %d: %w", b, node, err))
		}
	}
}

func (m *Manager) deferredTag(delay float64, tag EventTag, fn func()) {
	if delay <= 0 || (m.deferFn == nil && m.tagDefer == nil) {
		fn()
		return
	}
	if m.tagDefer != nil {
		m.tagDefer(delay, tag, fn)
		return
	}
	m.deferFn(delay, fn)
}

// TotalStats aggregates the per-node policy counters. An unbuilt node
// has counted nothing.
func (m *Manager) TotalStats() PolicyStats {
	var total PolicyStats
	for _, p := range m.policies {
		if p == nil {
			continue
		}
		s := p.Stats()
		total.ReplicasCreated += s.ReplicasCreated
		total.Evictions += s.Evictions
		total.RemoteSkipped += s.RemoteSkipped
		total.Refreshes += s.Refreshes
	}
	return total
}

// UsedBytes reports the dynamic-replica bytes tracked across all nodes.
func (m *Manager) UsedBytes() int64 {
	var total int64
	for _, p := range m.policies {
		if p == nil {
			continue
		}
		total += p.UsedBytes()
	}
	return total
}
