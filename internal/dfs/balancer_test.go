package dfs

import (
	"testing"
	"testing/quick"

	"dare/internal/stats"
	"dare/internal/topology"
)

// skewedNN builds a name node with deliberately imbalanced storage: all
// replicas start on the first few nodes.
func skewedNN(t *testing.T, nodes int, seed uint64) *NameNode {
	t.Helper()
	topo := topology.NewDedicated(nodes, 0, stats.Constant{V: 0})
	nn := NewNameNode(topo, 1, stats.NewRNG(seed))
	f, err := nn.CreateFile("f", 40, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate everything on nodes 0 and 1 using the balancer's own
	// move primitive (tested separately below).
	b := NewBalancer(nn)
	for i, blk := range f.Blocks {
		src := nn.Locations(blk)[0]
		dst := topology.NodeID(i % 2)
		if src == dst || nn.HasReplica(blk, dst) {
			continue
		}
		if err := b.move(blk, src, dst); err != nil {
			t.Fatal(err)
		}
	}
	return nn
}

func TestBalancerReducesStorageCV(t *testing.T) {
	nn := skewedNN(t, 8, 1)
	b := NewBalancer(nn)
	before := b.StorageCV()
	if !b.MovesNeeded() {
		t.Fatalf("skewed cluster (cv %.2f) should need balancing", before)
	}
	moves, movedBytes, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 || movedBytes == 0 {
		t.Fatal("balancer made no moves")
	}
	after := b.StorageCV()
	if after >= before {
		t.Fatalf("cv did not improve: %.3f -> %.3f", before, after)
	}
	if b.MovesNeeded() {
		t.Fatalf("still unbalanced after Run (cv %.3f)", after)
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancerPreservesReplicaCounts(t *testing.T) {
	nn := skewedNN(t, 8, 2)
	counts := map[BlockID]int{}
	for id := range BlockID(nn.Blocks()) {
		counts[id] = nn.NumReplicas(id)
	}
	if _, _, err := NewBalancer(nn).Run(); err != nil {
		t.Fatal(err)
	}
	for id, want := range counts {
		if got := nn.NumReplicas(id); got != want {
			t.Fatalf("block %d replica count changed: %d -> %d", id, want, got)
		}
	}
}

func TestBalancerRespectsMaxMoves(t *testing.T) {
	nn := skewedNN(t, 8, 3)
	b := NewBalancer(nn)
	b.MaxMoves = 3
	moves, _, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if moves > 3 {
		t.Fatalf("made %d moves with MaxMoves=3", moves)
	}
}

func TestBalancerNoopOnBalanced(t *testing.T) {
	topo := topology.NewDedicated(6, 0, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(4))
	nn.CreateFile("f", 60, 100, 0) // random placement is roughly balanced
	b := NewBalancer(nn)
	b.Threshold = 0.9 // generous: anything mild counts as balanced
	if b.MovesNeeded() {
		t.Skip("placement unusually skewed for this seed")
	}
	moves, _, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Fatalf("balanced cluster still moved %d blocks", moves)
	}
}

func TestBalancerSkipsFailedNodes(t *testing.T) {
	nn := skewedNN(t, 8, 5)
	nn.FailNode(7) // an empty node that must NOT receive moves
	b := NewBalancer(nn)
	if _, _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nn.NodeBlocks(7, 0, BlockID(nn.Blocks()))) != 0 {
		t.Fatal("balancer moved blocks onto a failed node")
	}
}

func TestBalancerEmptyCluster(t *testing.T) {
	topo := topology.NewDedicated(4, 0, stats.Constant{V: 0})
	nn := NewNameNode(topo, 1, stats.NewRNG(6))
	b := NewBalancer(nn)
	if b.MovesNeeded() {
		t.Fatal("empty cluster cannot need balancing")
	}
	if moves, _, err := b.Run(); err != nil || moves != 0 {
		t.Fatalf("empty cluster: moves=%d err=%v", moves, err)
	}
	if b.StorageCV() != 0 {
		t.Fatal("empty cluster cv should be 0")
	}
}

func TestBalancerTerminatesProperty(t *testing.T) {
	// Run must terminate and never corrupt metadata, for any placement
	// seed and any threshold.
	f := func(seed uint64, thrRaw uint8) bool {
		topo := topology.NewDedicated(6, 0, stats.Constant{V: 0})
		nn := NewNameNode(topo, 2, stats.NewRNG(seed))
		if _, err := nn.CreateFile("f", 30, 64, 0); err != nil {
			return false
		}
		b := NewBalancer(nn)
		b.Threshold = 0.05 + float64(thrRaw%50)/100
		if _, _, err := b.Run(); err != nil {
			return false
		}
		return nn.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
