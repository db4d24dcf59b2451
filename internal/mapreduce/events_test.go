package mapreduce

// In-package tests that a job's locality lookups follow replica removals
// at once: the job asks the name node, whose per-node block lists drop a
// replica eagerly, so an evicted replica's node is never offered its
// block as local again. The old single-slot replica hook wiring silently
// ignored removals.

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/topology"
	"dare/internal/workload"
)

// fifoSelector is a minimal in-package TaskSelector (the real schedulers
// live in internal/scheduler, which imports this package).
type fifoSelector struct{ jobs []*Job }

func (s *fifoSelector) Name() string     { return "test-fifo" }
func (s *fifoSelector) AddJob(j *Job)    { s.jobs = append(s.jobs, j) }
func (s *fifoSelector) RemoveJob(j *Job) {}
func (s *fifoSelector) SelectMapTask(node topology.NodeID, now float64) (*Job, dfs.BlockID, bool) {
	for _, j := range s.jobs {
		if b, ok := j.TakeLocalBlock(node); ok {
			return j, b, true
		}
	}
	return nil, 0, false
}
func (s *fifoSelector) SelectReduceTask(node topology.NodeID, now float64) (*Job, bool) {
	return nil, false
}

// newArrivedJob builds a cluster of three 4-node racks plus one arrived
// 32-map job.
func newArrivedJob(t *testing.T, seed uint64) (*Tracker, *Job) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 4
	c, err := NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := &workload.Workload{
		Name:  "events-test",
		Files: []workload.FileSpec{{Name: "f0", Blocks: 32}},
		Jobs: []workload.Job{{
			ID: 0, Arrival: 0, File: 0, FirstBlock: 0, NumMaps: 32,
			CPUPerTask: 1, NumReduces: 1, ReduceTime: 1, OutputBlocks: 1,
		}},
	}
	tr, err := NewTracker(c, wl, &fifoSelector{})
	if err != nil {
		t.Fatal(err)
	}
	tr.arrive(wl.Jobs[0])
	j := tr.jobByID[0]
	if j == nil {
		t.Fatal("job 0 not active after arrive")
	}
	return tr, j
}

// offers drains every block take offers node and requeues them: the set
// of the job's pending blocks take would hand node, with the pending set
// left as it was (up to requeue order).
func offers(j *Job, take func(topology.NodeID) (dfs.BlockID, bool), node topology.NodeID) map[dfs.BlockID]bool {
	got := make(map[dfs.BlockID]bool)
	for {
		b, ok := take(node)
		if !ok {
			break
		}
		got[b] = true
	}
	for b := range got {
		j.Requeue(b)
	}
	return got
}

// nodeWithoutReplica returns a node holding no replica of b.
func nodeWithoutReplica(t *testing.T, tr *Tracker, b dfs.BlockID) *Node {
	t.Helper()
	for _, n := range tr.c.Nodes {
		if !tr.c.NN.HasReplica(b, n.ID) {
			return n
		}
	}
	t.Fatal("every node holds a replica of the test block")
	return nil
}

func TestReplicaRemovalDropsNodeIndexEagerly(t *testing.T) {
	tr, j := newArrivedJob(t, 1)
	b := tr.files[0].Blocks[0]
	n := nodeWithoutReplica(t, tr, b)

	if err := tr.c.NN.AddDynamicReplica(b, n.ID); err != nil {
		t.Fatal(err)
	}
	if !offers(j, j.TakeLocalBlock, n.ID)[b] {
		t.Fatalf("a dynamic replica on node %d did not make block %d node-local there", n.ID, b)
	}

	if err := tr.c.NN.RemoveDynamicReplica(b, n.ID); err != nil {
		t.Fatal(err)
	}
	if offers(j, j.TakeLocalBlock, n.ID)[b] {
		t.Fatalf("evicted replica's node %d was offered block %d as node-local", n.ID, b)
	}
	if _, pending := j.pendingSeq[b]; !pending {
		t.Fatalf("block %d left the pending set", b)
	}
}

func TestReplicaRemovalKeepsRackIndexWhileCovered(t *testing.T) {
	tr, j := newArrivedJob(t, 2)
	b := tr.files[0].Blocks[0]
	topo := tr.c.Topo

	// A rack with no replica of b: three racks, three replicas, and the
	// default placement puts two of them in one rack.
	rack := -1
	for r := range topo.Racks() {
		covered := false
		tr.c.NN.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
			covered = topo.Rack(n) == r
			return !covered
		})
		if !covered {
			rack = r
			break
		}
	}
	if rack < 0 {
		t.Fatal("every rack holds a replica of the test block")
	}
	n1, n2 := topo.RackMembers(rack)[0], topo.RackMembers(rack)[1]
	if offers(j, j.TakeRackLocalBlock, n1)[b] {
		t.Fatalf("block %d is rack-local in rack %d before any replica landed there", b, rack)
	}

	for _, n := range []topology.NodeID{n1, n2} {
		if err := tr.c.NN.AddDynamicReplica(b, n); err != nil {
			t.Fatal(err)
		}
	}
	if !offers(j, j.TakeRackLocalBlock, n1)[b] {
		t.Fatalf("block %d not rack-local for node %d with a replica on node %d", b, n1, n2)
	}

	// Removing one of two same-rack replicas keeps the block rack-local
	// for every node but the survivor's own.
	if err := tr.c.NN.RemoveDynamicReplica(b, n1); err != nil {
		t.Fatal(err)
	}
	if !offers(j, j.TakeRackLocalBlock, n1)[b] {
		t.Fatalf("block %d no longer rack-local for node %d while node %d holds it", b, n1, n2)
	}
	if offers(j, j.TakeRackLocalBlock, n2)[b] {
		t.Fatalf("node %d was offered its own block %d as rack-local", n2, b)
	}

	// Removing the last in-rack replica ends it.
	if err := tr.c.NN.RemoveDynamicReplica(b, n2); err != nil {
		t.Fatal(err)
	}
	if offers(j, j.TakeRackLocalBlock, n1)[b] {
		t.Fatalf("block %d still rack-local in rack %d with no replica left there", b, rack)
	}
}
