package core

import (
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
	if _, err := nn.CreateFile("input", 1000, 128, 0); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		managerSink = NewManager(DefaultConfig(), nn, rng, nil)
	}
}
