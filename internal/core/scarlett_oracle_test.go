package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"dare/internal/dfs"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// oracleRebalance is the Scarlett epoch in its first, linear form: the
// plan is a map, and every replica placed scans every node for the
// least-loaded one that does not hold the block. It mutates s exactly as
// Rebalance must, so the two can be run side by side on equal registries.
func oracleRebalance(s *Scarlett) {
	if s.nn.Down() || s.nn.Warming() {
		return
	}
	pops := make([]filePop, 0, len(s.accesses))
	for f, a := range s.accesses {
		if a > 0 {
			pops = append(pops, filePop{f, a})
		}
	}
	sort.Slice(pops, func(i, j int) bool {
		if pops[i].acc != pops[j].acc {
			return pops[i].acc > pops[j].acc
		}
		return pops[i].id < pops[j].id
	})

	desired := make(map[dfs.BlockID]int)
	s.growCtx.now = s.now.read()
	for _, fp := range pops {
		s.growCtx.accesses = float64(fp.acc)
		if !s.grow.Eval(&s.growCtx) {
			continue
		}
		extra := int(float64(fp.acc) / s.cfg.AccessesPerReplica)
		if extra > s.cfg.MaxExtraReplicas {
			extra = s.cfg.MaxExtraReplicas
		}
		if extra == 0 {
			continue
		}
		file := s.nn.File(fp.id)
		if file == nil {
			continue
		}
		for _, b := range file.Blocks {
			desired[b] = extra
		}
	}

	for id := 0; id < s.nn.Blocks(); id++ {
		b := dfs.BlockID(id)
		victims := s.dynamicHolders(b)
		for _, node := range victims[:max(len(victims)-desired[b], 0)] {
			s.removeReplica(b, node)
		}
	}

	used := s.nn.TotalDynamicBytes()
grow:
	for _, fp := range pops {
		file := s.nn.File(fp.id)
		if file == nil {
			continue
		}
		for _, b := range file.Blocks {
			for have := len(s.dynamicHolders(b)); have < desired[b]; have++ {
				blk := s.nn.Block(b)
				if blk == nil || used+blk.Size > s.budget {
					break grow
				}
				node, ok := oracleLeastLoadedNodeWithout(s.nn, b)
				if !ok || !s.addReplica(b, node, blk.Size) {
					break
				}
				used += blk.Size
			}
		}
	}

	s.accesses = make(map[dfs.FileID]int64)
}

// oracleLeastLoadedNodeWithout is the argmin scan: the live node with the
// fewest dynamic bytes that does not hold b, lowest ID on a tie.
func oracleLeastLoadedNodeWithout(nn *dfs.NameNode, b dfs.BlockID) (topology.NodeID, bool) {
	best := topology.NodeID(-1)
	var bestLoad int64
	for i := 0; i < nn.N(); i++ {
		node := topology.NodeID(i)
		if nn.NodeFailed(node) || nn.HasReplica(b, node) {
			continue
		}
		load := nn.DynamicBytesOn(node)
		if best < 0 || load < bestLoad {
			best, bestLoad = node, load
		}
	}
	return best, best >= 0
}

// oracleCase is one generated registry and the controller settings run
// over it.
type oracleCase struct {
	nodes, rackSize, replication int
	img                          []byte
	files                        []*dfs.File
	cfg                          Config
}

// genOracleCase builds a name node with one to four file groups (each of
// one block size, so equal dynamic loads and equal-load ties are common),
// dynamic replicas already spread over random nodes, and some failed
// nodes, and returns its state image. The budget is a whole number of
// blocks of the first group's size, down to a single block.
func genOracleCase(t *testing.T, rng *stats.RNG) oracleCase {
	t.Helper()
	nodes, rackSize := 1+rng.Intn(24), rng.Intn(5)
	repl := 1 + rng.Intn(min(3, nodes))
	nn := dfs.NewNameNode(topology.NewDedicated(nodes, rackSize, stats.Constant{V: 0}), repl, stats.NewRNG(uint64(rng.Int63())))
	var files []*dfs.File
	sizes := []int64{100, 100, 150, 250}
	for g := range 1 + rng.Intn(4) {
		specs := make([]dfs.FileSpec, 1+rng.Intn(4))
		for i := range specs {
			specs[i] = dfs.FileSpec{Name: fmt.Sprintf("g%d-f%d", g, i), Blocks: 1 + rng.Intn(6)}
		}
		fs, err := nn.CreateFiles(specs, sizes[g], 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	for range rng.Intn(3 * nn.Blocks()) {
		b, node := dfs.BlockID(rng.Intn(nn.Blocks())), topology.NodeID(rng.Intn(nodes))
		if !nn.HasReplica(b, node) {
			if err := nn.AddDynamicReplica(b, node); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range rng.Intn(1 + nodes/3) {
		nn.FailNode(topology.NodeID(rng.Intn(nodes)))
	}

	blocks := int64(1 + rng.Intn(4))
	if rng.Bool(0.3) {
		blocks = int64(1 + rng.Intn(8*nn.Blocks()))
	}
	cfg := Config{
		Kind: ScarlettPolicy,
		// Half a byte over the whole-block budget, so float rounding in
		// NewScarlett cannot take a block off it.
		BudgetFraction:     (float64(blocks*sizes[0]) + 0.5) / float64(nn.TotalPrimaryBytes()),
		AccessesPerReplica: float64(1 + rng.Intn(4)),
		MaxExtraReplicas:   1 + rng.Intn(nodes+2),
	}
	e := snapshot.NewEnc()
	if err := nn.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return oracleCase{nodes: nodes, rackSize: rackSize, replication: repl, img: e.Data(), files: files, cfg: cfg}
}

// decode builds a fresh name node from the case's image.
func (c oracleCase) decode(t *testing.T) *dfs.NameNode {
	t.Helper()
	nn := dfs.NewNameNode(topology.NewDedicated(c.nodes, c.rackSize, stats.Constant{V: 0}), c.replication, stats.NewRNG(0))
	d := snapshot.NewDec(c.img)
	if err := nn.WalkState(snapshot.WalkDec(d)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return nn
}

func nameNodeImage(t *testing.T, nn *dfs.NameNode) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := nn.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

// TestScarlettRebalanceMatchesOracle: over generated registries with failed
// nodes, equal dynamic loads, blocks already held by low-load nodes and
// budgets down to a single block, every epoch of Rebalance leaves the same
// registry image, counters and copy bytes as the linear oracle epoch run
// on a second copy of the same image. Between epochs both copies lose the
// same node, so later epochs place lost replicas again.
func TestScarlettRebalanceMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(48)
	for i := range 300 {
		c := genOracleCase(t, rng)
		nnA, nnB := c.decode(t), c.decode(t)
		a, b := NewScarlett(c.cfg, nnA, nil), NewScarlett(c.cfg, nnB, nil)
		for epoch := range 4 {
			for range rng.Intn(60) {
				f := c.files[rng.Intn(len(c.files))]
				blk := f.Blocks[rng.Intn(len(f.Blocks))]
				local := rng.Bool(0.5)
				a.OnMapTask(0, blk, f.ID, 100, local)
				b.OnMapTask(0, blk, f.ID, 100, local)
			}
			a.Rebalance()
			oracleRebalance(b)
			where := fmt.Sprintf("case %d (%d nodes, budget %.4g) epoch %d", i, c.nodes, c.cfg.BudgetFraction, epoch)
			if !bytes.Equal(nameNodeImage(t, nnA), nameNodeImage(t, nnB)) {
				t.Fatalf("%s: registry images differ", where)
			}
			if a.TotalStats() != b.TotalStats() {
				t.Fatalf("%s: stats %+v, oracle %+v", where, a.TotalStats(), b.TotalStats())
			}
			if a.ExtraNetworkBytes() != b.ExtraNetworkBytes() {
				t.Fatalf("%s: copy bytes %d, oracle %d", where, a.ExtraNetworkBytes(), b.ExtraNetworkBytes())
			}
			if len(a.Errors()) != 0 || len(b.Errors()) != 0 {
				t.Fatalf("%s: errors %v, oracle %v", where, a.Errors(), b.Errors())
			}
			if err := nnA.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if rng.Bool(0.3) {
				node := topology.NodeID(rng.Intn(c.nodes))
				nnA.FailNode(node)
				nnB.FailNode(node)
			}
		}
	}
}
