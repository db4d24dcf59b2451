package dfs

import (
	"testing"

	"dare/internal/stats"
	"dare/internal/topology"
)

func TestRecoverNodeRejoinsEmpty(t *testing.T) {
	nn := newTestNN(6, 3, 21)
	f, _ := nn.CreateFile("f", 8, 100, 0)
	victim := nn.Locations(f.Blocks[0])[0]
	nn.FailNode(victim)
	if _, err := nn.ReRegisterNode(victim, nil); err != nil {
		t.Fatal(err)
	}
	if nn.NodeFailed(victim) || nn.FailedNodes() != 0 {
		t.Fatal("recovery did not clear failure state")
	}
	// HDFS-style re-registration: the node comes back empty.
	if got := len(nn.NodeBlocks(victim, 0, BlockID(nn.Blocks()))); got != 0 {
		t.Fatalf("recovered node lists %d blocks, want 0", got)
	}
	if nn.PrimaryBytesOn(victim) != 0 || nn.DynamicBytesOn(victim) != 0 {
		t.Fatal("recovered node has non-zero byte accounting")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The node is usable again: placement and repair may target it.
	b := f.Blocks[0]
	if !nn.HasReplica(b, victim) {
		if err := nn.AddPrimaryReplica(b, victim); err != nil {
			t.Fatalf("repair onto recovered node: %v", err)
		}
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverNodeValidation(t *testing.T) {
	nn := newTestNN(4, 2, 22)
	if _, err := nn.ReRegisterNode(0, nil); err == nil {
		t.Fatal("recovering an up node should error")
	}
	if _, err := nn.ReRegisterNode(99, nil); err == nil {
		t.Fatal("recovering an invalid node should error")
	}
	nn.FailNode(2)
	if _, err := nn.ReRegisterNode(2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.ReRegisterNode(2, nil); err == nil {
		t.Fatal("double recovery should error")
	}
}

// TestInvariantsStayRelaxedAfterFullRecovery is the regression test for the
// sticky churn flag: with every node back up but blocks permanently lost or
// under-replicated (empty rejoin), CheckInvariants must not reimpose the
// replication floor.
func TestInvariantsStayRelaxedAfterFullRecovery(t *testing.T) {
	nn := newTestNN(3, 1, 23) // replication 1: failure loses data for good
	f, _ := nn.CreateFile("f", 6, 100, 0)
	host := nn.Locations(f.Blocks[0])[0]
	rep := nn.FailNode(host)
	if len(rep.UnavailableBlocks) == 0 {
		t.Fatal("expected lost blocks with replication 1")
	}
	if _, err := nn.ReRegisterNode(host, nil); err != nil {
		t.Fatal(err)
	}
	if nn.FailedNodes() != 0 {
		t.Fatal("cluster should be fully up")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatalf("invariants must tolerate lost blocks after full recovery: %v", err)
	}
	avail, total := nn.Availability()
	if avail != total-len(rep.UnavailableBlocks) {
		t.Fatalf("lost blocks resurrected: %d/%d available, %d were lost",
			avail, total, len(rep.UnavailableBlocks))
	}
}

func TestIsUnderReplicatedMatchesQueue(t *testing.T) {
	nn := newTestNN(8, 3, 24)
	nn.CreateFile("f", 12, 100, 0)
	nn.FailNode(1)
	nn.FailNode(5)
	queued := make(map[BlockID]bool)
	for _, b := range nn.UnderReplicated() {
		queued[b] = true
	}
	for b := BlockID(0); int(b) < nn.Blocks(); b++ {
		if got := nn.IsUnderReplicated(b); got != queued[b] {
			t.Fatalf("block %d: IsUnderReplicated=%v, queue membership=%v", b, got, queued[b])
		}
	}
	// Repair one block; its per-block status must flip without rescanning.
	under := nn.UnderReplicated()
	if len(under) == 0 {
		t.Fatal("expected under-replicated blocks")
	}
	b := under[0]
	for nn.IsUnderReplicated(b) {
		target, ok := nn.RepairTarget(b)
		if !ok {
			t.Fatalf("no repair target for block %d", b)
		}
		if err := nn.AddPrimaryReplica(b, target); err != nil {
			t.Fatal(err)
		}
	}
	for _, still := range nn.UnderReplicated() {
		if still == b {
			t.Fatal("repaired block still in queue")
		}
	}
}

// TestRepairTargetPrefersFreshRack checks the rack-aware preference: when a
// block's replicas are concentrated in covered racks, repair must pick a
// node from a rack holding no replica if one is available.
func TestRepairTargetPrefersFreshRack(t *testing.T) {
	// 6 nodes in 3 racks of 2: rack(n) = n/2.
	topo := topology.NewDedicated(6, 2, stats.Constant{V: 0.0002})
	nn := NewNameNode(topo, 2, stats.NewRNG(25))
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	locs := nn.Locations(b)
	covered := make(map[int]bool)
	for _, n := range locs {
		covered[topo.Rack(n)] = true
	}
	target, ok := nn.RepairTarget(b)
	if !ok {
		t.Fatal("no repair target")
	}
	if len(covered) < 3 && covered[topo.Rack(target)] {
		t.Fatalf("target %d in covered rack %d; replicas at %v", target, topo.Rack(target), locs)
	}
}

// TestInvariantsCatchReplicaOnDownNode exercises the new down-node check
// with a hand-corrupted name node.
func TestInvariantsCatchReplicaOnDownNode(t *testing.T) {
	nn := newTestNN(4, 2, 26)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	host := nn.Locations(b)[0]
	// Corrupt: mark the node failed without scrubbing its replicas.
	nn.failed[host] = true
	nn.churned = true
	if err := nn.CheckInvariants(); err == nil {
		t.Fatal("invariant checker missed a replica on a down node")
	}
}
