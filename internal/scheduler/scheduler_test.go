package scheduler

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
	"dare/internal/workload"
)

// fixture builds a small cluster with one file and helpers to make jobs.
type fixture struct {
	c *mapreduce.Cluster
	f *dfs.File
}

func newFixture(t *testing.T, seed uint64) *fixture {
	t.Helper()
	p := config.CCT()
	p.Slaves = 10
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := createFile(c.NN, "input", 30, p.BlockSizeBytes())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{c: c, f: f}
}

func (fx *fixture) job(id int, arrival float64, first, maps int) *mapreduce.Job {
	spec := workload.Job{ID: id, Arrival: arrival, File: 0, FirstBlock: first, NumMaps: maps, CPUPerTask: 1, NumReduces: 1, ReduceTime: 2}
	return mapreduce.NewJob(spec, fx.f, fx.c)
}

// nodeWithReplica finds a node holding block b; nodeWithout finds one that
// does not.
func (fx *fixture) nodeWithReplica(b dfs.BlockID) topology.NodeID {
	return locations(fx.c.NN, b)[0]
}

// locations lists the nodes holding block b, in ascending order.
func locations(nn *dfs.NameNode, b dfs.BlockID) []topology.NodeID {
	var out []topology.NodeID
	nn.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
		out = append(out, n)
		return true
	})
	return out
}

func (fx *fixture) nodeWithout(b dfs.BlockID) topology.NodeID {
	for n := 0; n < len(fx.c.Nodes); n++ {
		if !fx.c.NN.HasReplica(b, topology.NodeID(n)) {
			return topology.NodeID(n)
		}
	}
	return -1
}

func TestFIFOServesHeadOfLine(t *testing.T) {
	fx := newFixture(t, 1)
	s := NewFIFO()
	j1 := fx.job(1, 0, 0, 3)
	j2 := fx.job(2, 1, 10, 3)
	s.AddJob(j1)
	s.AddJob(j2)
	// Offer slots from a node with NO replica of j1's blocks: FIFO must
	// still serve j1 (non-locally), never j2.
	node := fx.nodeWithout(fx.f.Blocks[0])
	for i := 0; i < 3; i++ {
		j, _, ok := s.SelectMapTask(node, 0)
		if !ok || j != j1 {
			t.Fatalf("offer %d went to %v, want head-of-line job 1", i, j)
		}
	}
	j, _, ok := s.SelectMapTask(node, 0)
	if !ok || j != j2 {
		t.Fatal("after draining job 1, job 2 must be served")
	}
}

func TestFIFOPrefersLocalBlock(t *testing.T) {
	fx := newFixture(t, 2)
	s := NewFIFO()
	j1 := fx.job(1, 0, 0, 5)
	s.AddJob(j1)
	// Offer from a node holding block[2]: FIFO should return a block with
	// a replica on that node.
	node := fx.nodeWithReplica(fx.f.Blocks[2])
	_, b, ok := s.SelectMapTask(node, 0)
	if !ok {
		t.Fatal("no task")
	}
	if !fx.c.NN.HasReplica(b, node) {
		t.Fatalf("FIFO picked non-local block %d though local work existed", b)
	}
}

func TestFIFORemoveJob(t *testing.T) {
	fx := newFixture(t, 3)
	s := NewFIFO()
	j1 := fx.job(1, 0, 0, 2)
	j2 := fx.job(2, 1, 5, 2)
	s.AddJob(j1)
	s.AddJob(j2)
	s.RemoveJob(j1)
	if len(s.jobs) != 1 {
		t.Fatalf("jobs %d", len(s.jobs))
	}
	j, _, ok := s.SelectMapTask(0, 0)
	if !ok || j != j2 {
		t.Fatal("removed job still scheduled")
	}
	s.RemoveJob(j1) // removing twice is a no-op
}

func TestFIFOReduceSelection(t *testing.T) {
	fx := newFixture(t, 4)
	s := NewFIFO()
	j1 := fx.job(1, 0, 0, 1)
	s.AddJob(j1)
	if _, ok := s.SelectReduceTask(0, 0); ok {
		t.Fatal("reduces must wait for the map phase")
	}
}

func TestFIFOEmpty(t *testing.T) {
	s := NewFIFO()
	if _, _, ok := s.SelectMapTask(0, 0); ok {
		t.Fatal("empty scheduler returned a task")
	}
	if _, ok := s.SelectReduceTask(0, 0); ok {
		t.Fatal("empty scheduler returned a reduce")
	}
}

func TestFairPrefersJobBelowShare(t *testing.T) {
	fx := newFixture(t, 5)
	s := NewFair(5)
	j1 := fx.job(1, 0, 0, 10)
	j2 := fx.job(2, 1, 15, 10)
	s.AddJob(j1)
	s.AddJob(j2)
	// Both jobs have zero running maps; arrival order breaks the tie, so
	// j1 goes first when it has local work.
	node := fx.nodeWithReplica(fx.f.Blocks[0])
	j, _, ok := s.SelectMapTask(node, 0)
	if !ok {
		t.Fatal("no task")
	}
	if j != j1 && j != j2 {
		t.Fatal("unknown job")
	}
}

func TestFairDelaySchedulingSkipsThenLaunches(t *testing.T) {
	fx := newFixture(t, 6)
	s := NewFair(3)
	j1 := fx.job(1, 0, 0, 1)
	s.AddJob(j1)
	b := fx.f.Blocks[0]
	node := fx.nodeWithout(b)
	// The job is skipped while its budget lasts (3 opportunities)...
	for i := 0; i < 3; i++ {
		if _, _, ok := s.SelectMapTask(node, float64(i)); ok {
			t.Fatalf("offer %d: delay scheduling should skip non-local work", i)
		}
		if s.Skips(j1) != i+1 {
			t.Fatalf("offer %d: skip count %d", i, s.Skips(j1))
		}
	}
	// ...then launches non-locally.
	j, got, ok := s.SelectMapTask(node, 4)
	if !ok || j != j1 || got != b {
		t.Fatalf("expected non-local launch after skip budget, got ok=%v", ok)
	}
	if s.Skips(j1) != 0 {
		t.Fatal("launch must reset the skip count")
	}
}

func TestFairLocalLaunchResetsSkips(t *testing.T) {
	fx := newFixture(t, 7)
	s := NewFair(5)
	j1 := fx.job(1, 0, 0, 3)
	s.AddJob(j1)
	remote, ok := remoteFor(fx, j1)
	if !ok {
		t.Skip("placement left no fully-remote node")
	}
	for i := 0; i < 4; i++ {
		if _, _, got := s.SelectMapTask(remote, 0); got {
			t.Fatal("non-local offer should be skipped")
		}
	}
	if s.Skips(j1) != 4 {
		t.Fatalf("skips %d, want 4", s.Skips(j1))
	}
	// A local launch on another node resets the budget...
	local := fx.nodeWithReplica(fx.f.Blocks[1])
	if _, _, got := s.SelectMapTask(local, 1); !got {
		t.Fatal("local work should launch")
	}
	if s.Skips(j1) != 0 {
		t.Fatal("local launch must reset skips")
	}
	// ...so the next non-local offer is skipped again rather than served.
	remote2, ok := remoteFor(fx, j1)
	if !ok {
		t.Skip("no fully-remote node after launch")
	}
	if _, _, got := s.SelectMapTask(remote2, 2); got {
		t.Fatal("skip budget should have been reset by the local launch")
	}
}

// remoteFor finds a node with no replica of any of j's input blocks.
func remoteFor(fx *fixture, j *mapreduce.Job) (topology.NodeID, bool) {
	for n := 0; n < len(fx.c.Nodes); n++ {
		if !fx.holdsInput(j, topology.NodeID(n)) {
			return topology.NodeID(n), true
		}
	}
	return 0, false
}

// holdsInput reports whether node holds a replica of any of j's input
// blocks.
func (fx *fixture) holdsInput(j *mapreduce.Job, node topology.NodeID) bool {
	for _, b := range fx.f.Blocks[j.Spec.FirstBlock : j.Spec.FirstBlock+j.Spec.NumMaps] {
		if fx.c.NN.HasReplica(b, node) {
			return true
		}
	}
	return false
}

func TestFairSkipsToOtherJobsWhileWaiting(t *testing.T) {
	fx := newFixture(t, 8)
	s := NewFair(100) // effectively never give up
	j1 := fx.job(1, 0, 0, 5)
	j2 := fx.job(2, 1, 10, 5)
	s.AddJob(j1)
	s.AddJob(j2)
	// Node local to a j2 block but (possibly) not to j1's. If j1 has no
	// local block there, the slot must flow to j2.
	node := fx.nodeWithReplica(fx.f.Blocks[12])
	if fx.holdsInput(j1, node) {
		t.Skip("placement gave j1 local work on this node")
	}
	j, _, ok := s.SelectMapTask(node, 0)
	if !ok || j != j2 {
		t.Fatalf("slot should flow past waiting j1 to j2, got %v ok=%v", j, ok)
	}
}

func TestFairDefaultMaxSkips(t *testing.T) {
	s := NewFair(0)
	if s.MaxSkips != DefaultMaxSkips {
		t.Fatalf("max skips %v, want default %v", s.MaxSkips, DefaultMaxSkips)
	}
}

func TestFairRemoveJobCleansState(t *testing.T) {
	fx := newFixture(t, 9)
	s := NewFair(5)
	j1 := fx.job(1, 0, 0, 2)
	s.AddJob(j1)
	s.RemoveJob(j1)
	if len(s.jobs) != 0 || len(s.skips) != 0 {
		t.Fatal("state leaked after RemoveJob")
	}
}

func TestFromName(t *testing.T) {
	if s, ok := FromName("fifo", 0); !ok || s.Name() != "fifo" {
		t.Fatal("fifo not constructed")
	}
	if s, ok := FromName("fair", 3); !ok || s.Name() != "fair" {
		t.Fatal("fair not constructed")
	}
	if _, ok := FromName("bogus", 0); ok {
		t.Fatal("bogus scheduler constructed")
	}
}
