package dfs

import (
	"testing"

	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// BenchmarkCreateFile measures rack-aware primary placement.
func BenchmarkCreateFile(b *testing.B) {
	topo := topology.NewDedicated(100, 20, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.CreateFile("f", 16, 128, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreateFile10k measures placement on a 10k-node cluster in
// racks of 40, where the third replica's rack-local fallback walks one
// rack's members instead of the whole cluster.
func BenchmarkCreateFile10k(b *testing.B) {
	topo := topology.NewDedicated(10000, 40, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.CreateFile("f", 16, 128, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryDecode measures a state restore's name node decode: a
// 10,000-block registry on 1,000 nodes in racks of 40, journaled, so
// WalkState decodes the registry twice (the live image and the journal
// checkpoint it checks).
func BenchmarkRegistryDecode(b *testing.B) {
	topo := topology.NewDedicated(1000, 40, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	if _, err := nn.CreateFiles(populationSpecs(10000), 128, 0); err != nil {
		b.Fatal(err)
	}
	nn.EnableJournal(0)
	e := snapshot.NewEnc()
	if err := nn.WalkState(snapshot.WalkEnc(e)); err != nil {
		b.Fatal(err)
	}
	img := e.Data()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := NewNameNode(topo, 3, stats.NewRNG(2))
		if err := fresh.WalkState(snapshot.WalkDec(snapshot.NewDec(img))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicReplicaChurn measures the add/remove metadata path DARE
// exercises on every capture and eviction.
func BenchmarkDynamicReplicaChurn(b *testing.B) {
	topo := topology.NewDedicated(20, 0, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	f, err := nn.CreateFile("f", 64, 128, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Precompute a free node per block.
	free := make([]topology.NodeID, len(f.Blocks))
	for i, blk := range f.Blocks {
		for n := 0; n < 20; n++ {
			if !nn.HasReplica(blk, topology.NodeID(n)) {
				free[i] = topology.NodeID(n)
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(f.Blocks)
		if err := nn.AddDynamicReplica(f.Blocks[k], free[k]); err != nil {
			b.Fatal(err)
		}
		if err := nn.RemoveDynamicReplica(f.Blocks[k], free[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocations measures the read path the scheduler hits on every
// locality check.
func BenchmarkLocations(b *testing.B) {
	topo := topology.NewDedicated(20, 0, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	f, err := nn.CreateFile("f", 64, 128, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Locations(f.Blocks[i%len(f.Blocks)])
	}
}
