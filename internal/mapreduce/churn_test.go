package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// churnFixture builds a two-rack cluster (CCT hardware, racks of 5) so
// rack-correlated failures have both victims and survivors.
func churnFixture(t *testing.T, seed uint64, jobs int) (*mapreduce.Cluster, *mapreduce.Tracker) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 10
	p.RackSize = 5
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

func TestNodeRecoveryRestoresScheduling(t *testing.T) {
	c, tr := churnFixture(t, 11, 60)
	tr.ScheduleNodeFailure(3, 4)
	tr.ScheduleNodeRecovery(3, 12)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	if !c.Nodes[3].Up || c.NN.NodeFailed(3) {
		t.Fatal("node 3 did not rejoin")
	}
	recs := tr.RecoveryEvents()
	if len(recs) != 1 || recs[0].Node != 3 || recs[0].Time != 12 {
		t.Fatalf("recovery events %+v", recs)
	}
	// Slots returned to the scheduler at full capacity.
	if c.Nodes[3].FreeMapSlots > c.Profile.MapSlotsPerNode {
		t.Fatal("slot accounting broken after rejoin")
	}
	// Availability is monotone non-increasing across events: rejoin is
	// empty, so nothing lost ever comes back.
	evs := tr.FailureEvents()
	if len(evs) != 1 {
		t.Fatalf("failure events %d", len(evs))
	}
	if recs[0].WeightedAvailability > evs[0].WeightedAvailability {
		t.Fatalf("availability rose from %v to %v after empty rejoin",
			evs[0].WeightedAvailability, recs[0].WeightedAvailability)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryOfUpNodeIsNoOp(t *testing.T) {
	_, tr := churnFixture(t, 12, 20)
	tr.ScheduleNodeRecovery(2, 5) // node 2 never fails
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.RecoveryEvents()) != 0 {
		t.Fatal("no-op recovery recorded an event")
	}
}

func TestRackFailureKillsWholeRack(t *testing.T) {
	c, tr := churnFixture(t, 13, 60)
	tr.ScheduleRackFailure(0, 5)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	evs := tr.FailureEvents()
	if len(evs) != 5 {
		t.Fatalf("rack of 5 produced %d failure events", len(evs))
	}
	for _, ev := range evs {
		if ev.Rack != 0 || ev.Time != 5 {
			t.Fatalf("event %+v not tagged as rack-0 switch failure", ev)
		}
		if c.Topo.Rack(ev.Node) != 0 {
			t.Fatalf("node %d is not in rack 0", ev.Node)
		}
	}
	for i := 0; i < 5; i++ {
		if c.Nodes[i].Up {
			t.Fatalf("rack-0 node %d survived the switch failure", i)
		}
	}
	for i := 5; i < 10; i++ {
		if !c.Nodes[i].Up {
			t.Fatalf("rack-1 node %d died in a rack-0 failure", i)
		}
	}
}

func TestRackFailureThenRecoveryHeals(t *testing.T) {
	c, tr := churnFixture(t, 14, 60)
	tr.ScheduleRackFailure(1, 5)
	for n := 5; n < 10; n++ {
		tr.ScheduleNodeRecovery(topology.NodeID(n), 20+float64(n))
	}
	tr.SetInvariantChecks(true)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 5; n < 10; n++ {
		if !c.Nodes[n].Up {
			t.Fatalf("node %d did not rejoin", n)
		}
	}
	if tr.RepairsDone() == 0 {
		t.Fatal("no repairs after a rack failure")
	}
	// With all nodes back and repair drained, every surviving block must be
	// back at full replication.
	if under := c.NN.UnderReplicated(); len(under) != 0 {
		t.Fatalf("%d blocks still under-replicated after heal", len(under))
	}
}

func TestInvalidRackRejected(t *testing.T) {
	_, tr := churnFixture(t, 15, 10)
	tr.ScheduleRackFailure(7, 1)
	if _, err := tr.Run(); err == nil {
		t.Fatal("invalid rack accepted")
	}
}

func TestTaskAttemptLimitFailsJob(t *testing.T) {
	_, tr := churnFixture(t, 16, 30)
	// Every attempt fails: each map input burns its 4 attempts and the job
	// fails — the run must still terminate with a result per job.
	tr.SetTaskFailureInjection(1.0, stats.NewRNG(99))
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if !r.Failed {
			t.Fatalf("job %d completed despite 100%% task failure", r.ID)
		}
	}
}

func TestFlakyTasksRetryAndComplete(t *testing.T) {
	_, tr := churnFixture(t, 17, 40)
	// 20% attempt failure: retries with backoff should carry every job to
	// completion (the chance of 4 consecutive failures is 0.16% per task).
	tr.SetTaskFailureInjection(0.2, stats.NewRNG(7))
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range results {
		if r.Failed {
			failed++
		}
	}
	if failed > len(results)/10 {
		t.Fatalf("%d/%d jobs failed at 20%% attempt-failure rate", failed, len(results))
	}
}

func TestBlacklistingAndRecoveryForgiveness(t *testing.T) {
	c, tr := churnFixture(t, 18, 60)
	tr.SetTaskFailureInjection(0.5, stats.NewRNG(5))
	tr.SetBlacklistAfter(2)
	// Rejoin two nodes late in the run: recovery must clear any verdict.
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Blacklisted() == 0 {
		t.Fatal("50% attempt failure never blacklisted a node")
	}
	usable := 0
	for _, n := range c.Nodes {
		if n.Up && !n.Blacklisted {
			usable++
		}
	}
	if usable < 1 {
		t.Fatal("blacklisting starved the scheduler of nodes")
	}
}

func TestRecoveryClearsBlacklist(t *testing.T) {
	c, tr := churnFixture(t, 19, 40)
	tr.ScheduleNodeFailure(4, 6)
	tr.ScheduleNodeRecovery(4, 14)
	// Pre-blacklist the node: the rejoin (re-registration) must forgive it.
	mapreduce.Blacklist(c, 4)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[4].Blacklisted {
		t.Fatal("recovery did not clear the blacklist")
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() ([]mapreduce.FailureEvent, []mapreduce.RecoveryEvent, int) {
		_, tr := churnFixture(t, 20, 50)
		tr.ScheduleNodeFailure(2, 4)
		tr.ScheduleRackFailure(1, 8)
		tr.ScheduleNodeRecovery(2, 15)
		tr.ScheduleNodeRecovery(6, 18)
		tr.SetTaskFailureInjection(0.1, stats.NewRNG(3))
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.FailureEvents(), tr.RecoveryEvents(), tr.RepairsDone()
	}
	f1, r1, d1 := run()
	f2, r2, d2 := run()
	if len(f1) != len(f2) || len(r1) != len(r2) || d1 != d2 {
		t.Fatalf("churn runs diverged: %d/%d events vs %d/%d, %d vs %d repairs",
			len(f1), len(r1), len(f2), len(r2), d1, d2)
	}
	for i := range f1 {
		if f1[i].Time != f2[i].Time {
			t.Fatalf("failure event %d time differs", i)
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("recovery event %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
