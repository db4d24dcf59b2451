package topology

import (
	"fmt"
	"testing"
	"testing/quick"

	"dare/internal/stats"
)

func TestDedicatedSingleRack(t *testing.T) {
	d := NewDedicated(20, 0, stats.Constant{V: 0.00018})
	if d.N() != 20 {
		t.Fatalf("N=%d", d.N())
	}
	for i := 0; i < 20; i++ {
		if d.Rack(NodeID(i)) != 0 {
			t.Fatalf("node %d not in rack 0", i)
		}
	}
	if d.Hops(3, 3) != 0 {
		t.Fatal("self hops should be 0")
	}
	if d.Hops(0, 19) != 2 {
		t.Fatalf("same-rack hops = %d, want 2", d.Hops(0, 19))
	}
}

func TestDedicatedMultiRack(t *testing.T) {
	d := NewDedicated(8, 4, stats.Constant{V: 0})
	if d.Rack(0) != 0 || d.Rack(3) != 0 || d.Rack(4) != 1 || d.Rack(7) != 1 {
		t.Fatal("rack assignment wrong")
	}
	if d.Hops(0, 3) != 2 {
		t.Fatal("same-rack pair should be 2 hops")
	}
	if d.Hops(0, 4) != 4 {
		t.Fatal("cross-rack pair should be 4 hops")
	}
}

func TestDedicatedRTT(t *testing.T) {
	d := NewDedicated(4, 0, stats.Constant{V: 0.5})
	g := stats.NewRNG(1)
	if d.SampleRTT(1, 1, g) != 0 {
		t.Fatal("self RTT should be 0")
	}
	if d.SampleRTT(0, 1, g) != 0.5 {
		t.Fatal("RTT should follow dist")
	}
	// Negative samples clamp to zero.
	neg := NewDedicated(4, 0, stats.Constant{V: -1})
	if neg.SampleRTT(0, 1, g) != 0 {
		t.Fatal("negative RTT not clamped")
	}
}

func TestVirtualPlacementDeterministic(t *testing.T) {
	p := VirtualParams{Nodes: 20, Racks: 40, Pods: 2, RTT: stats.Constant{V: 0.001}}
	a := NewVirtual(p, stats.NewRNG(9))
	b := NewVirtual(p, stats.NewRNG(9))
	for i := 0; i < 20; i++ {
		if a.Rack(NodeID(i)) != b.Rack(NodeID(i)) || a.Pod(NodeID(i)) != b.Pod(NodeID(i)) {
			t.Fatal("placement not deterministic under equal seeds")
		}
	}
}

func TestVirtualHopLevels(t *testing.T) {
	p := VirtualParams{Nodes: 50, Racks: 10, Pods: 3, RTT: stats.Constant{V: 0.001}}
	v := NewVirtual(p, stats.NewRNG(3))
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			h := v.Hops(NodeID(i), NodeID(j))
			if i == j {
				if h != 0 {
					t.Fatal("self hops nonzero")
				}
				continue
			}
			switch {
			case v.Rack(NodeID(i)) == v.Rack(NodeID(j)):
				if h != 2 {
					t.Fatalf("same-rack pair %d hops", h)
				}
			case v.Pod(NodeID(i)) == v.Pod(NodeID(j)):
				if h != 4 {
					t.Fatalf("same-pod pair %d hops", h)
				}
			default:
				if h != 6 {
					t.Fatalf("cross-pod pair %d hops", h)
				}
			}
		}
	}
}

func TestHopSymmetryProperty(t *testing.T) {
	f := func(seed uint64, ai, bi uint8) bool {
		g := stats.NewRNG(seed)
		v := NewVirtual(VirtualParams{Nodes: 30, Racks: 15, Pods: 3, RTT: stats.Constant{V: 0}}, g)
		a := NodeID(int(ai) % 30)
		b := NodeID(int(bi) % 30)
		return v.Hops(a, b) == v.Hops(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualPerHopRTT(t *testing.T) {
	p := VirtualParams{Nodes: 2, Racks: 2, Pods: 2, RTT: stats.Constant{V: 0.001}, PerHopRTT: 0.002}
	// Force cross-pod by retrying seeds until the two nodes differ in pod.
	for seed := uint64(0); seed < 100; seed++ {
		v := NewVirtual(p, stats.NewRNG(seed))
		if v.Pod(0) != v.Pod(1) {
			g := stats.NewRNG(1)
			rtt := v.SampleRTT(0, 1, g)
			want := 0.001 + 4*0.002 // 6 hops => 4 extra
			if diff := rtt - want; diff < -1e-12 || diff > 1e-12 {
				t.Fatalf("rtt %v, want %v", rtt, want)
			}
			return
		}
	}
	t.Skip("no cross-pod placement found in 100 seeds (unlikely)")
}

func TestHopHistogramDedicated(t *testing.T) {
	d := NewDedicated(20, 0, stats.Constant{V: 0})
	h := HopHistogram(d)
	var pairs int64
	for v := 0; v <= h.Max(); v++ {
		pairs += h.Count(v)
	}
	if pairs != 190 {
		t.Fatalf("pair count %d, want 190", pairs)
	}
	if h.Fraction(2) != 1 {
		t.Fatalf("single-rack cluster should be all 2-hop, got fraction %v", h.Fraction(2))
	}
}

func TestHopHistogramVirtualConcentratesAtFour(t *testing.T) {
	// EC2-like: many racks, few pods -> mass at 4 hops (Fig. 1).
	p := VirtualParams{Nodes: 20, Racks: 60, Pods: 2, RTT: stats.Constant{V: 0}}
	v := NewVirtual(p, stats.NewRNG(42))
	h := HopHistogram(v)
	if h.Fraction(4) < 0.3 {
		t.Fatalf("4-hop fraction %v; expected the mode near 4 hops", h.Fraction(4))
	}
	if h.Fraction(2) > 0.3 {
		t.Fatalf("2-hop fraction %v; EC2-like spread should have few same-rack pairs", h.Fraction(2))
	}
}

func TestAllPairsRTTCount(t *testing.T) {
	d := NewDedicated(5, 0, stats.Constant{V: 0.1})
	g := stats.NewRNG(2)
	rtts := AllPairsRTT(d, g)
	if len(rtts) != 20 {
		t.Fatalf("got %d RTTs, want 20", len(rtts))
	}
	for _, r := range rtts {
		if r != 0.1 {
			t.Fatalf("unexpected RTT %v", r)
		}
	}
}

func TestNewDedicatedPanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDedicated(0, 0, stats.Constant{V: 0})
}

func TestNewVirtualPanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVirtual(VirtualParams{Nodes: 0}, stats.NewRNG(1))
}

func TestVirtualDefaults(t *testing.T) {
	// Racks/Pods <= 0 fall back to sane defaults without panicking.
	v := NewVirtual(VirtualParams{Nodes: 5, RTT: stats.Constant{V: 0}}, stats.NewRNG(1))
	if v.N() != 5 {
		t.Fatalf("N=%d", v.N())
	}
}

// TestRackMembershipMatchesRack checks Racks, RackMembers and
// RackOrdinal against a brute-force recomputation from Rack alone, on
// dedicated layouts whose rack size divides N, does not, is 0 or holds
// the only node, and on seeded virtual layouts that leave rack IDs empty.
func TestRackMembershipMatchesRack(t *testing.T) {
	virtual := func(nodes, racks, pods int, seed uint64) *Topology {
		return NewVirtual(VirtualParams{Nodes: nodes, Racks: racks, Pods: pods, RTT: stats.Constant{V: 0}}, stats.NewRNG(seed))
	}
	for _, c := range []struct {
		name  string
		topo  *Topology
		empty bool // some rack index below Racks() has no member
	}{
		{"dedicated 40 in racks of 8", NewDedicated(40, 8, stats.Constant{V: 0}), false},
		{"dedicated 43 in racks of 8", NewDedicated(43, 8, stats.Constant{V: 0}), false},
		{"dedicated rack size 0", NewDedicated(12, 0, stats.Constant{V: 0}), false},
		{"dedicated 1 node", NewDedicated(1, 4, stats.Constant{V: 0}), false},
		{"virtual 20 over 60 racks", virtual(20, 60, 2, 42), true},
		{"virtual 20 over 60 racks, seed 7", virtual(20, 60, 3, 7), true},
		{"virtual 300 over 40 racks", virtual(300, 40, 3, 4), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := c.topo
			racks := 0
			for n := range topo.N() {
				racks = max(racks, topo.Rack(NodeID(n))+1)
			}
			if topo.Racks() != racks {
				t.Fatalf("Racks() = %d, want %d", topo.Racks(), racks)
			}
			empty := false
			for r := range racks {
				var want []NodeID
				for n := range topo.N() {
					if topo.Rack(NodeID(n)) == r {
						want = append(want, NodeID(n))
					}
				}
				got := topo.RackMembers(r)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("RackMembers(%d) = %v, want %v", r, got, want)
				}
				for i, n := range want {
					if topo.RackOrdinal(n) != i {
						t.Fatalf("RackOrdinal(%d) = %d, want %d", n, topo.RackOrdinal(n), i)
					}
				}
				empty = empty || len(want) == 0
			}
			if empty != c.empty {
				t.Fatalf("layout has an empty rack: %v, want %v", empty, c.empty)
			}
		})
	}
}
