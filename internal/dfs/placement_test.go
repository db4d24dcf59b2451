package dfs

import (
	"bytes"
	"fmt"
	"testing"

	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// choosePrimariesScan is the reference placement the rack index must
// match: the same probes as choosePrimaries, but every fallback scans the
// whole cluster cyclically from start.
func choosePrimariesScan(nn *NameNode) []topology.NodeID {
	n := nn.topo.N()
	want := nn.replication
	if want > n {
		want = n
	}
	chosen := make([]topology.NodeID, 0, want)
	used := make(map[topology.NodeID]bool, want)
	pick := func(ok func(topology.NodeID) bool) (topology.NodeID, bool) {
		usable := func(cand topology.NodeID) bool {
			return !used[cand] && !nn.failed[cand] && (ok == nil || ok(cand))
		}
		for t := 0; t < 8; t++ {
			if cand := topology.NodeID(nn.rng.Intn(n)); usable(cand) {
				return cand, true
			}
		}
		start := nn.rng.Intn(n)
		for i := 0; i < n; i++ {
			if cand := topology.NodeID((start + i) % n); usable(cand) {
				return cand, true
			}
		}
		return 0, false
	}
	add := func(node topology.NodeID) {
		chosen = append(chosen, node)
		used[node] = true
	}

	first, ok := pick(nil)
	if !ok {
		return nil
	}
	add(first)
	if want >= 2 {
		r0 := nn.topo.Rack(first)
		second, ok := pick(func(c topology.NodeID) bool { return nn.topo.Rack(c) != r0 })
		if !ok {
			second, ok = pick(nil)
		}
		if ok {
			add(second)
		}
	}
	if want >= 3 && len(chosen) >= 2 {
		r1 := nn.topo.Rack(chosen[1])
		third, ok := pick(func(c topology.NodeID) bool { return nn.topo.Rack(c) == r1 })
		if !ok {
			third, ok = pick(nil)
		}
		if ok {
			add(third)
		}
	}
	for len(chosen) < want {
		extra, ok := pick(nil)
		if !ok {
			break
		}
		add(extra)
	}
	return chosen
}

func rngImage(t *testing.T, nn *NameNode) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := nn.rng.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

func TestIndexedPlacementMatchesScan(t *testing.T) {
	virtual := func(nodes, racks int) func() topology.Topology {
		return func() topology.Topology {
			return topology.NewVirtual(topology.VirtualParams{Nodes: nodes, Racks: racks, Pods: 3, RTT: stats.Constant{V: 0}}, stats.NewRNG(4))
		}
	}
	dedicated := func(nodes, rackSize int) func() topology.Topology {
		return func() topology.Topology { return topology.NewDedicated(nodes, rackSize, stats.Constant{V: 0}) }
	}
	// Failure layouts, as functions of the topology: which nodes are down.
	none := func(topology.Topology) []topology.NodeID { return nil }
	everyThird := func(topo topology.Topology) []topology.NodeID {
		var down []topology.NodeID
		for i := 0; i < topo.N(); i += 3 {
			down = append(down, topology.NodeID(i))
		}
		return down
	}
	// rack0AllButOne leaves one live node in rack 0: once it holds the
	// second replica, the third finds its rack otherwise down and falls
	// back to any node.
	rack0AllButOne := func(topo topology.Topology) []topology.NodeID {
		var down []topology.NodeID
		kept := false
		for i := 0; i < topo.N(); i++ {
			if topo.Rack(topology.NodeID(i)) != 0 {
				continue
			}
			if !kept {
				kept = true
				continue
			}
			down = append(down, topology.NodeID(i))
		}
		return down
	}
	// allButRack0 downs every node outside rack 0, so a second replica
	// off the first's rack never exists.
	allButRack0 := func(topo topology.Topology) []topology.NodeID {
		var down []topology.NodeID
		for i := 0; i < topo.N(); i++ {
			if topo.Rack(topology.NodeID(i)) != 0 {
				down = append(down, topology.NodeID(i))
			}
		}
		return down
	}
	cases := []struct {
		name   string
		topo   func() topology.Topology
		blocks int
		down   func(topology.Topology) []topology.NodeID
	}{
		{"dedicated-10k-rack40", dedicated(10000, 40), 400, none},
		{"dedicated-10k-rack40-failed", dedicated(10000, 40), 400, everyThird},
		{"dedicated-1rack", dedicated(7, 0), 300, none},
		{"dedicated-1rack-failed", dedicated(7, 0), 300, everyThird},
		{"dedicated-small-racks", dedicated(60, 4), 400, none},
		{"dedicated-rack0-all-but-one", dedicated(60, 4), 800, rack0AllButOne},
		{"dedicated-all-but-rack0", dedicated(60, 4), 300, allButRack0},
		{"virtual-scattered", virtual(300, 40), 600, none},
		{"virtual-scattered-failed", virtual(300, 40), 600, everyThird},
		{"virtual-rack0-all-but-one", virtual(120, 30), 800, rack0AllButOne},
	}
	for _, c := range cases {
		for replication := 1; replication <= 4; replication++ {
			t.Run(fmt.Sprintf("%s/r%d", c.name, replication), func(t *testing.T) {
				topo := c.topo()
				indexed := NewNameNode(topo, replication, stats.NewRNG(31))
				scan := NewNameNode(topo, replication, stats.NewRNG(31))
				for _, node := range c.down(topo) {
					indexed.FailNode(node)
					scan.FailNode(node)
				}
				for i := 0; i < c.blocks; i++ {
					got, want := indexed.choosePrimaries(), choosePrimariesScan(scan)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("block %d: indexed placement %v, scan %v", i, got, want)
					}
				}
				if !bytes.Equal(rngImage(t, indexed), rngImage(t, scan)) {
					t.Fatal("rng image differs after placement")
				}
			})
		}
	}
}
