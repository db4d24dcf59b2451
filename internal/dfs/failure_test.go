package dfs

import (
	"testing"

	"dare/internal/topology"
)

func TestFailNodeRemovesReplicas(t *testing.T) {
	nn := newTestNN(10, 3, 1)
	f, _ := nn.CreateFile("f", 10, 100, 0)
	// Pick a node hosting at least one block.
	var victim topology.NodeID = -1
	for n := 0; n < 10; n++ {
		if len(nn.NodeBlocks(topology.NodeID(n), 0, BlockID(nn.Blocks()))) > 0 {
			victim = topology.NodeID(n)
			break
		}
	}
	hosted := len(nn.NodeBlocks(victim, 0, BlockID(nn.Blocks())))
	rep := nn.FailNode(victim)
	if len(rep.LostPrimaries) != hosted {
		t.Fatalf("lost %d primaries, node hosted %d", len(rep.LostPrimaries), hosted)
	}
	if len(nn.NodeBlocks(victim, 0, BlockID(nn.Blocks()))) != 0 {
		t.Fatal("failed node still lists blocks")
	}
	if nn.PrimaryBytesOn(victim) != 0 || nn.DynamicBytesOn(victim) != 0 {
		t.Fatal("byte accounting not cleared")
	}
	if !nn.NodeFailed(victim) || nn.FailedNodes() != 1 {
		t.Fatal("failure not recorded")
	}
	for _, b := range f.Blocks {
		for _, loc := range nn.Locations(b) {
			if loc == victim {
				t.Fatal("failed node still in locations")
			}
		}
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeIdempotent(t *testing.T) {
	nn := newTestNN(5, 2, 2)
	nn.CreateFile("f", 5, 100, 0)
	nn.FailNode(0)
	rep := nn.FailNode(0)
	if len(rep.LostPrimaries) != 0 || len(rep.LostDynamic) != 0 {
		t.Fatal("double failure reported losses")
	}
	if nn.FailedNodes() != 1 {
		t.Fatal("double failure double-counted")
	}
}

func TestFailNodeReportsDynamicLosses(t *testing.T) {
	nn := newTestNN(6, 2, 3)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	var free topology.NodeID = -1
	for n := 0; n < 6; n++ {
		if !nn.HasReplica(b, topology.NodeID(n)) {
			free = topology.NodeID(n)
			break
		}
	}
	if err := nn.AddDynamicReplica(b, free); err != nil {
		t.Fatal(err)
	}
	rep := nn.FailNode(free)
	if len(rep.LostDynamic) != 1 || rep.LostDynamic[0] != b {
		t.Fatalf("dynamic loss not reported: %+v", rep)
	}
}

func TestUnavailableBlocksReported(t *testing.T) {
	nn := newTestNN(3, 1, 4) // replication 1: any failure loses data
	f, _ := nn.CreateFile("f", 6, 100, 0)
	host := nn.Locations(f.Blocks[0])[0]
	rep := nn.FailNode(host)
	if len(rep.UnavailableBlocks) == 0 {
		t.Fatal("single-replica blocks should become unavailable")
	}
	avail, total := nn.Availability()
	if total != 6 || avail != 6-len(rep.UnavailableBlocks) {
		t.Fatalf("availability %d/%d with %d unavailable", avail, total, len(rep.UnavailableBlocks))
	}
}

func TestUnderReplicatedAndRepair(t *testing.T) {
	nn := newTestNN(6, 3, 5)
	f, _ := nn.CreateFile("f", 4, 100, 0)
	host := nn.Locations(f.Blocks[0])[0]
	nn.FailNode(host)
	under := nn.UnderReplicated()
	if len(under) == 0 {
		t.Fatal("expected under-replicated blocks after failure")
	}
	for _, b := range under {
		target, ok := nn.RepairTarget(b)
		if !ok {
			t.Fatalf("no repair target for block %d", b)
		}
		if nn.NodeFailed(target) {
			t.Fatal("repair target is a failed node")
		}
		if err := nn.AddPrimaryReplica(b, target); err != nil {
			t.Fatal(err)
		}
	}
	if left := nn.UnderReplicated(); len(left) != 0 {
		t.Fatalf("%d blocks still under-replicated after repair", len(left))
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = f
}

func TestAddPrimaryReplicaValidation(t *testing.T) {
	nn := newTestNN(4, 2, 6)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	if err := nn.AddPrimaryReplica(999, 0); err == nil {
		t.Fatal("unknown block accepted")
	}
	if err := nn.AddPrimaryReplica(b, 99); err == nil {
		t.Fatal("invalid node accepted")
	}
	holder := nn.Locations(b)[0]
	if err := nn.AddPrimaryReplica(b, holder); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	var free topology.NodeID = -1
	for n := 0; n < 4; n++ {
		if !nn.HasReplica(b, topology.NodeID(n)) {
			free = topology.NodeID(n)
			break
		}
	}
	nn.FailNode(free)
	if err := nn.AddPrimaryReplica(b, free); err == nil {
		t.Fatal("replica accepted on failed node")
	}
}

func TestUpNodes(t *testing.T) {
	nn := newTestNN(5, 2, 7)
	nn.FailNode(1)
	nn.FailNode(3)
	up := nn.UpNodes()
	want := []topology.NodeID{0, 2, 4}
	if len(up) != len(want) {
		t.Fatalf("up nodes %v", up)
	}
	for i := range want {
		if up[i] != want[i] {
			t.Fatalf("up nodes %v, want %v", up, want)
		}
	}
}

func TestWeightedAvailability(t *testing.T) {
	nn := newTestNN(4, 1, 8)
	f, _ := nn.CreateFile("f", 2, 100, 0)
	b0, b1 := f.Blocks[0], f.Blocks[1]
	weights := make([]float64, nn.Blocks())
	weights[b0], weights[b1] = 9, 1
	if wa := nn.WeightedAvailability(weights); wa != 1 {
		t.Fatalf("pre-failure weighted availability %v", wa)
	}
	// Fail b1's host (if it doesn't also host b0).
	h1 := nn.Locations(b1)[0]
	if nn.HasReplica(b0, h1) {
		t.Skip("blocks co-located for this seed")
	}
	nn.FailNode(h1)
	if wa := nn.WeightedAvailability(weights); wa != 0.9 {
		t.Fatalf("weighted availability %v, want 0.9", wa)
	}
	// Empty or zero weights degrade to 1 (nothing the user reads is lost).
	if wa := nn.WeightedAvailability(nil); wa != 1 {
		t.Fatalf("nil weights availability %v", wa)
	}
	if wa := nn.WeightedAvailability(make([]float64, nn.Blocks())); wa != 1 {
		t.Fatalf("zero weights availability %v", wa)
	}
}

func TestPlacementAvoidsFailedNodes(t *testing.T) {
	nn := newTestNN(6, 3, 9)
	nn.FailNode(0)
	nn.FailNode(1)
	f, _ := nn.CreateFile("after", 20, 100, 0)
	for _, b := range f.Blocks {
		for _, loc := range nn.Locations(b) {
			if loc == 0 || loc == 1 {
				t.Fatal("placement used failed node")
			}
		}
		if nn.NumReplicas(b) != 3 {
			t.Fatalf("block %d got %d replicas with 4 live nodes", b, nn.NumReplicas(b))
		}
	}
}
