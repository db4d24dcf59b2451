package core

import (
	"fmt"
	"testing"

	"dare/internal/dfs"
	"dare/internal/stats"
	"dare/internal/topology"
)

// BenchmarkGreedyLRUOnMapTask measures Algorithm 1's per-task cost at a
// binding budget (steady-state evict+insert).
func BenchmarkGreedyLRUOnMapTask(b *testing.B) {
	p := newCache(GreedyLRUPolicy, 100*128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnMapTask(dfs.BlockID(i%1000), dfs.FileID(i%37), 128, i%3 == 0)
	}
}

// BenchmarkGreedyLFUOnMapTask measures the LFU variant's per-task cost at
// a binding budget, heap fixes and set-aside victims included.
func BenchmarkGreedyLFUOnMapTask(b *testing.B) {
	p := newCache(GreedyLFUPolicy, 100*128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnMapTask(dfs.BlockID(i%1000), dfs.FileID(i%37), 128, i%3 == 0)
	}
}

// BenchmarkElephantTrapOnMapTask measures Algorithm 2's per-task cost
// including the competitive-aging sweeps.
func BenchmarkElephantTrapOnMapTask(b *testing.B) {
	et := newET(0.3, 1, 100*128, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		et.OnMapTask(dfs.BlockID(i%1000), dfs.FileID(i%37), 128, i%3 == 0)
	}
}

var managerSink *Manager

// BenchmarkNewManager measures wiring the replication runtime on a
// 10k-node cluster: only node 0 is built up front, the rest on first use.
func BenchmarkNewManager(b *testing.B) {
	topo := topology.NewDedicated(10000, 40, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 3, stats.NewRNG(1))
	if _, err := createFile(nn, "input", 1000, 128); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		managerSink = NewManager(DefaultConfig(), nn, rng, nil)
	}
}

// scarlettBench is a Scarlett controller over a registry of 10-block
// files whose epochs alternate between two hot sets of four files, each
// with its own popularity: every epoch ages out the other set's extra
// replicas and places this set's.
type scarlettBench struct {
	s     *Scarlett
	files []*dfs.File
	epoch int
}

func newScarlettBench(tb testing.TB, nodes, blocks int) *scarlettBench {
	tb.Helper()
	nn := dfs.NewNameNode(topology.NewDedicated(nodes, 40, stats.Constant{V: 0}), 3, stats.NewRNG(1))
	specs := make([]dfs.FileSpec, blocks/10)
	for i := range specs {
		specs[i] = dfs.FileSpec{Name: fmt.Sprintf("f%d", i), Blocks: 10}
	}
	files, err := nn.CreateFiles(specs, 128, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 0.2, AccessesPerReplica: 4, MaxExtraReplicas: 16}
	return &scarlettBench{s: NewScarlett(cfg, nn, nil), files: files}
}

// step runs one epoch. The hot sets are the last eight files, so their
// blocks have the highest IDs.
func (sb *scarlettBench) step() {
	hot := sb.files[len(sb.files)-8:][sb.epoch%2*4:][:4]
	for i, f := range hot {
		for k := range 4 * (2 + i) {
			sb.s.OnMapTask(0, f.Blocks[k%len(f.Blocks)], f.ID, 128, false)
		}
	}
	sb.s.Rebalance()
	sb.epoch++
}

// BenchmarkScarlettRebalance measures one Scarlett epoch on a 99-node
// cluster of 1,000 blocks: 140 evictions and 140 placements.
func BenchmarkScarlettRebalance(b *testing.B) {
	sb := newScarlettBench(b, 99, 1000)
	sb.step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.step()
	}
}
