package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/topology"
	"dare/internal/workload"
)

func failureFixture(t *testing.T, seed uint64, jobs int) (*mapreduce.Cluster, *mapreduce.Tracker) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 10
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: jobs, NumFiles: 15, Seed: seed})
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

func TestNodeFailureJobsStillComplete(t *testing.T) {
	c, tr := failureFixture(t, 1, 60)
	tr.ScheduleNodeFailure(3, 5)
	tr.ScheduleNodeFailure(7, 9)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	events := tr.FailureEvents()
	if len(events) != 2 {
		t.Fatalf("failure events %d", len(events))
	}
	if !c.NN.NodeFailed(3) || !c.NN.NodeFailed(7) {
		t.Fatal("name node missed the failures")
	}
	if c.Nodes[3].Up || c.Nodes[7].Up {
		t.Fatal("failed nodes still up")
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFailureKillsAndRequeuesTasks(t *testing.T) {
	c, tr := failureFixture(t, 2, 80)
	// Fail mid-burst so in-flight tasks exist on the node.
	tr.ScheduleNodeFailure(0, 3)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.FailureEvents()[0]
	if ev.KilledMaps == 0 {
		t.Skip("no in-flight maps on node 0 at t=3 for this seed")
	}
	// Every job still finished all its maps despite the kills.
	for _, r := range results {
		if r.Local+r.Rack+r.Remote != r.NumMaps {
			t.Fatalf("job %d lost tasks: %d+%d+%d != %d", r.ID, r.Local, r.Rack, r.Remote, r.NumMaps)
		}
	}
	_ = c
}

func TestRepairRestoresReplication(t *testing.T) {
	c, tr := failureFixture(t, 3, 60)
	tr.ScheduleNodeFailure(2, 4)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.RepairsDone() == 0 {
		t.Fatal("no repairs performed")
	}
	// After repair, no block backed by live replicas should remain
	// under-replicated.
	if under := c.NN.UnderReplicated(); len(under) != 0 {
		t.Fatalf("%d blocks still under-replicated after the run", len(under))
	}
}

func TestDisableRepair(t *testing.T) {
	c, tr := failureFixture(t, 4, 40)
	tr.ScheduleNodeFailure(1, 4)
	tr.DisableRepair()
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.RepairsDone() != 0 {
		t.Fatal("repairs ran despite DisableRepair")
	}
	if len(c.NN.UnderReplicated()) == 0 {
		t.Fatal("expected lingering under-replication without repair")
	}
}

func TestFailedNodeReceivesNoNewReplicas(t *testing.T) {
	p := config.CCT()
	p.Slaves = 6
	c, err := mapreduce.NewCluster(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.NN.FailNode(2)
	f, err := mapreduce.CreateFile(c.NN, "after", 20, p.BlockSizeBytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if c.NN.HasReplica(b, topology.NodeID(2)) {
			t.Fatal("placement used a failed node")
		}
	}
	if err := c.NN.AddDynamicReplica(f.Blocks[0], 2); err == nil {
		t.Fatal("dynamic replica accepted on failed node")
	}
}

func TestFailureDeterministic(t *testing.T) {
	run := func() []mapreduce.FailureEvent {
		_, tr := failureFixture(t, 6, 50)
		tr.ScheduleNodeFailure(4, 6)
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.FailureEvents()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("event counts differ")
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].KilledMaps != b[i].KilledMaps ||
			a[i].AvailableBlocks != b[i].AvailableBlocks ||
			len(a[i].Report.LostPrimaries) != len(b[i].Report.LostPrimaries) {
			t.Fatalf("failure event %d differs between identical runs", i)
		}
	}
}

func TestFailureInvalidNode(t *testing.T) {
	_, tr := failureFixture(t, 7, 10)
	tr.ScheduleNodeFailure(99, 1)
	if _, err := tr.Run(); err == nil {
		t.Fatal("invalid failure node accepted")
	}
}
