package dfs

import (
	"slices"
	"testing"
	"testing/quick"

	"dare/internal/stats"
	"dare/internal/topology"
)

func newTestNN(nodes, repl int, seed uint64) *NameNode {
	topo := topology.NewDedicated(nodes, 5, stats.Constant{V: 0.0002})
	return NewNameNode(topo, repl, stats.NewRNG(seed))
}

func TestCreateFilePlacesReplicas(t *testing.T) {
	nn := newTestNN(20, 3, 1)
	f, err := nn.CreateFile("input", 10, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 10 {
		t.Fatalf("blocks %d", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		locs := nn.Locations(b)
		if len(locs) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b, len(locs))
		}
		seen := map[topology.NodeID]bool{}
		for _, n := range locs {
			if seen[n] {
				t.Fatalf("block %d placed twice on node %d", b, n)
			}
			seen[n] = true
		}
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRackAwarePlacement(t *testing.T) {
	// With 4 racks of 5, the default policy must span >= 2 racks whenever
	// possible (first replica in one rack, second in a different one).
	nn := newTestNN(20, 3, 2)
	f, err := nn.CreateFile("f", 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := nn.topo
	for _, b := range f.Blocks {
		racks := map[int]bool{}
		for _, n := range nn.Locations(b) {
			racks[topo.Rack(n)] = true
		}
		if len(racks) < 2 {
			t.Fatalf("block %d replicas all in one rack", b)
		}
	}
}

func TestCreateFileErrors(t *testing.T) {
	nn := newTestNN(5, 3, 3)
	if _, err := nn.CreateFile("x", 0, 128, 0); err == nil {
		t.Fatal("zero blocks should fail")
	}
	if _, err := nn.CreateFile("x", 1, 0, 0); err == nil {
		t.Fatal("zero block size should fail")
	}
}

func TestReplicationDegradesGracefully(t *testing.T) {
	// 2 nodes, replication 3: every block gets 2 replicas and invariants
	// still hold.
	nn := newTestNN(2, 3, 4)
	f, err := nn.CreateFile("small", 5, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if nn.NumReplicas(b) != 2 {
			t.Fatalf("block %d replicas %d, want 2", b, nn.NumReplicas(b))
		}
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicReplicaLifecycle(t *testing.T) {
	nn := newTestNN(10, 2, 5)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	// Find a node without a replica.
	var free topology.NodeID = -1
	for n := 0; n < 10; n++ {
		if !nn.HasReplica(b, topology.NodeID(n)) {
			free = topology.NodeID(n)
			break
		}
	}
	if free < 0 {
		t.Fatal("no free node")
	}
	if err := nn.AddDynamicReplica(b, free); err != nil {
		t.Fatal(err)
	}
	if nn.NumReplicas(b) != 3 {
		t.Fatalf("replicas %d, want 3", nn.NumReplicas(b))
	}
	if k, _ := nn.ReplicaKindAt(b, free); k != Dynamic {
		t.Fatal("replica kind should be Dynamic")
	}
	if nn.DynamicBytesOn(free) != 100 {
		t.Fatalf("dynamic bytes %d", nn.DynamicBytesOn(free))
	}
	// Double add fails.
	if err := nn.AddDynamicReplica(b, free); err == nil {
		t.Fatal("duplicate add should fail")
	}
	// Remove restores state.
	if err := nn.RemoveDynamicReplica(b, free); err != nil {
		t.Fatal(err)
	}
	if nn.NumReplicas(b) != 2 || nn.DynamicBytesOn(free) != 0 {
		t.Fatal("remove did not restore state")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCannotRemovePrimary(t *testing.T) {
	nn := newTestNN(10, 3, 6)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	primary := nn.Locations(b)[0]
	if err := nn.RemoveDynamicReplica(b, primary); err == nil {
		t.Fatal("removing a primary replica must fail")
	}
	if err := nn.RemoveDynamicReplica(b, topology.NodeID(99)); err == nil {
		t.Fatal("removing from a node without replica must fail")
	}
}

func TestAddDynamicReplicaValidation(t *testing.T) {
	nn := newTestNN(5, 2, 7)
	if err := nn.AddDynamicReplica(999, 0); err == nil {
		t.Fatal("unknown block should fail")
	}
	f, _ := nn.CreateFile("f", 1, 10, 0)
	if err := nn.AddDynamicReplica(f.Blocks[0], topology.NodeID(50)); err == nil {
		t.Fatal("invalid node should fail")
	}
}

func TestByteAccounting(t *testing.T) {
	nn := newTestNN(10, 3, 8)
	nn.CreateFile("a", 4, 128, 0)
	nn.CreateFile("b", 2, 128, 0)
	if got := nn.TotalPrimaryBytes(); got != 6*3*128 {
		t.Fatalf("total primary bytes %d, want %d", got, 6*3*128)
	}
	if nn.TotalDynamicBytes() != 0 {
		t.Fatal("no dynamic bytes expected")
	}
	var sum int64
	for n := 0; n < 10; n++ {
		sum += nn.PrimaryBytesOn(topology.NodeID(n))
	}
	if sum != nn.TotalPrimaryBytes() {
		t.Fatal("per-node sums disagree with total")
	}
}

// TestNodeBlocksSorted: NodeBlocks lists a node's blocks in [lo, hi),
// ascending, for every range, and appending to the view leaves the name
// node's own list alone.
func TestNodeBlocksSorted(t *testing.T) {
	nn := newTestNN(3, 3, 9)
	nn.CreateFile("f", 20, 1, 0)
	for n := range topology.NodeID(3) {
		all := nn.NodeBlocks(n, 0, BlockID(nn.Blocks()))
		for i := 1; i < len(all); i++ {
			if all[i] <= all[i-1] {
				t.Fatal("NodeBlocks not sorted")
			}
		}
		for lo := BlockID(0); lo <= 21; lo++ {
			for hi := lo; hi <= 21; hi++ {
				var want []BlockID
				for _, b := range all {
					if lo <= b && b < hi {
						want = append(want, b)
					}
				}
				got := nn.NodeBlocks(n, lo, hi)
				if !slices.Equal(got, want) {
					t.Fatalf("node %d [%d, %d): NodeBlocks %v, want %v", n, lo, hi, got, want)
				}
				_ = append(got, -1)
			}
		}
		if got := nn.NodeBlocks(n, 0, BlockID(nn.Blocks())); !slices.Equal(got, all) || slices.Contains(got, -1) {
			t.Fatalf("node %d: appending to a view changed the list to %v", n, got)
		}
	}
}

func TestFileAndBlockLookups(t *testing.T) {
	nn := newTestNN(5, 2, 10)
	f, _ := nn.CreateFile("f", 3, 7, 42.5)
	if nn.File(f.ID) != f {
		t.Fatal("File lookup failed")
	}
	if nn.File(999) != nil {
		t.Fatal("unknown file should be nil")
	}
	blk := nn.Block(f.Blocks[1])
	if blk == nil || blk.File != f.ID || blk.Index != 1 || blk.Size != 7 {
		t.Fatalf("bad block: %+v", blk)
	}
	if f.Created != 42.5 {
		t.Fatal("creation time not recorded")
	}
	if len(nn.files) != 1 || nn.Blocks() != 3 {
		t.Fatalf("counts %d files %d blocks", len(nn.files), nn.Blocks())
	}
}

func TestPlacementDeterminism(t *testing.T) {
	a := newTestNN(20, 3, 11)
	b := newTestNN(20, 3, 11)
	fa, _ := a.CreateFile("f", 30, 128, 0)
	fb, _ := b.CreateFile("f", 30, 128, 0)
	for i := range fa.Blocks {
		la, lb := a.Locations(fa.Blocks[i]), b.Locations(fb.Blocks[i])
		if len(la) != len(lb) {
			t.Fatal("placement not deterministic")
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatal("placement not deterministic")
			}
		}
	}
}

func TestPlacementSpreadsLoad(t *testing.T) {
	// Placing many blocks must use all nodes, not hotspot a few.
	nn := newTestNN(10, 3, 12)
	nn.CreateFile("big", 200, 1, 0)
	for n := 0; n < 10; n++ {
		if len(nn.NodeBlocks(topology.NodeID(n), 0, BlockID(nn.Blocks()))) == 0 {
			t.Fatalf("node %d received no blocks", n)
		}
	}
}

func TestInvariantsPropertyUnderRandomDynamicOps(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		nn := newTestNN(8, 2, seed)
		file, err := nn.CreateFile("f", 6, 10, 0)
		if err != nil {
			return false
		}
		g := stats.NewRNG(seed)
		for _, op := range ops {
			b := file.Blocks[int(op)%len(file.Blocks)]
			node := topology.NodeID(g.Intn(8))
			if op%2 == 0 {
				if !nn.HasReplica(b, node) {
					if err := nn.AddDynamicReplica(b, node); err != nil {
						return false
					}
				}
			} else {
				if k, ok := nn.ReplicaKindAt(b, node); ok && k == Dynamic {
					if err := nn.RemoveDynamicReplica(b, node); err != nil {
						return false
					}
				}
			}
		}
		return nn.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewNameNodePanicsOnBadReplication(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestNN(5, 0, 1)
}
