package scheduler

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
	"dare/internal/workload"
)

// multiRackFixture builds a two-rack dedicated cluster so rack-local and
// off-rack launches are distinguishable.
type multiRackFixture struct {
	c *mapreduce.Cluster
	f *dfs.File
}

func newMultiRackFixture(t *testing.T, seed uint64) *multiRackFixture {
	t.Helper()
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 6 // two racks of six
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.NN.CreateFile("input", 20, p.BlockSizeBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &multiRackFixture{c: c, f: f}
}

func (fx *multiRackFixture) job(id, first, maps int) *mapreduce.Job {
	spec := workload.Job{ID: id, Arrival: 0, File: 0, FirstBlock: first, NumMaps: maps, CPUPerTask: 1}
	return mapreduce.NewJob(spec, fx.f, fx.c)
}

// offRackNodeFor finds a node in a different rack from every replica of
// every pending block of j (so only an off-rack launch is possible).
func offRackNodeFor(fx *multiRackFixture, blocks []dfs.BlockID) (topology.NodeID, bool) {
	for n := 0; n < 12; n++ {
		node := topology.NodeID(n)
		rack := fx.c.Topo.Rack(node)
		clean := true
		for _, b := range blocks {
			for _, loc := range locations(fx.c.NN, b) {
				if loc == node || fx.c.Topo.Rack(loc) == rack {
					clean = false
					break
				}
			}
			if !clean {
				break
			}
		}
		if clean {
			return node, true
		}
	}
	return 0, false
}

func TestTwoLevelDelayOffRackNeedsBothBudgets(t *testing.T) {
	fx := newMultiRackFixture(t, 1)
	s := &Fair{MaxSkips: 2, RackSkips: 3}
	j := fx.job(1, 0, 1)
	s.AddJob(j)
	b := fx.f.Blocks[0]
	node, ok := offRackNodeFor(fx, []dfs.BlockID{b})
	if !ok {
		t.Skip("default placement spans both racks for this seed")
	}
	// Skips 1..2 consume D1; skips 3..5 consume D2; the off-rack launch is
	// allowed on the offer where skips >= D1+D2 = 5.
	launched := -1
	for i := 0; i < 10; i++ {
		if _, got, okSel := s.SelectMapTask(node, float64(i)); okSel {
			if got != b {
				t.Fatalf("launched unexpected block %d", got)
			}
			launched = i
			break
		}
	}
	if launched < 0 {
		t.Fatal("off-rack launch never happened")
	}
	if launched < 5 {
		t.Fatalf("off-rack launch after only %d offers; want >= 5 (D1+D2)", launched)
	}
}

func TestTwoLevelDelayRackLocalAfterD1(t *testing.T) {
	fx := newMultiRackFixture(t, 2)
	s := &Fair{MaxSkips: 2, RackSkips: 100} // off-rack effectively forbidden
	j := fx.job(1, 0, 1)
	s.AddJob(j)
	b := fx.f.Blocks[0]
	// Find a node in the same rack as a replica but not holding it.
	var node topology.NodeID = -1
	locs := locations(fx.c.NN, b)
	for n := 0; n < 12; n++ {
		cand := topology.NodeID(n)
		if fx.c.NN.HasReplica(b, cand) {
			continue
		}
		for _, loc := range locs {
			if fx.c.Topo.Rack(loc) == fx.c.Topo.Rack(cand) {
				node = cand
				break
			}
		}
		if node >= 0 {
			break
		}
	}
	if node < 0 {
		t.Skip("no rack-local non-holding node for this seed")
	}
	launched := -1
	for i := 0; i < 10; i++ {
		if _, _, okSel := s.SelectMapTask(node, float64(i)); okSel {
			launched = i
			break
		}
	}
	if launched != 2 {
		t.Fatalf("rack-local launch at offer %d; want exactly after D1=2 skips", launched)
	}
}

// TestNewFairTwoLevelDefaults: NewFair gives both delay levels the same
// patience, the default one when it is not positive.
func TestNewFairTwoLevelDefaults(t *testing.T) {
	s := NewFair(0)
	if s.MaxSkips != DefaultMaxSkips || s.RackSkips != DefaultMaxSkips {
		t.Fatalf("defaults wrong: %d/%d", s.MaxSkips, s.RackSkips)
	}
	s2 := NewFair(3)
	if s2.MaxSkips != 3 || s2.RackSkips != 3 {
		t.Fatalf("explicit patience not carried to the rack level: %d/%d", s2.MaxSkips, s2.RackSkips)
	}
}
