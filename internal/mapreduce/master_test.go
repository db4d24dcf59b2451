package mapreduce

// In-package tests for the master crash/failover machinery. Several arm
// CheckLedgerAtRecovery, which cross-checks the tracker's live
// bookkeeping at every recovery against a ledger of the bus's event
// stream, so they double as a consistency proof for that stream.

import (
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// masterFIFO is a minimal in-package FIFO TaskSelector (the real
// schedulers live in internal/scheduler, which imports this package):
// head-of-line job, node-local then rack-local then any block.
type masterFIFO struct{ jobs []*Job }

func (s *masterFIFO) Name() string  { return "test-fifo" }
func (s *masterFIFO) AddJob(j *Job) { s.jobs = append(s.jobs, j) }
func (s *masterFIFO) RemoveJob(j *Job) {
	for i, cur := range s.jobs {
		if cur == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			return
		}
	}
}
func (s *masterFIFO) SelectMapTask(node topology.NodeID, now float64) (*Job, dfs.BlockID, bool) {
	for _, j := range s.jobs {
		if j.PendingMaps() == 0 {
			continue
		}
		if b, ok := j.TakeLocalBlock(node); ok {
			return j, b, true
		}
		if b, ok := j.TakeRackLocalBlock(node); ok {
			return j, b, true
		}
		if b, ok := j.TakeAnyBlock(); ok {
			return j, b, true
		}
	}
	return nil, 0, false
}
func (s *masterFIFO) SelectReduceTask(node topology.NodeID, now float64) (*Job, bool) {
	for _, j := range s.jobs {
		if j.PendingReduces() > 0 {
			return j, true
		}
	}
	return nil, false
}

// masterFixture builds the same two-rack cluster the churn tests use.
func masterFixture(t *testing.T, seed uint64, jobs int) (*Cluster, *Tracker) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 10
	p.RackSize = 5
	c, err := NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: jobs, NumFiles: 15, Seed: seed})
	tr, err := NewTracker(c, wl, &masterFIFO{})
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// Arming the recovery machinery without scheduling an outage must change
// nothing: every failover hook is one predictable branch when the master
// never goes down.
func TestMasterRecoveryEnableIsInert(t *testing.T) {
	run := func(enable bool) []Result {
		_, tr := masterFixture(t, 24, 50)
		if enable {
			tr.EnableMasterRecovery(16)
		}
		results, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	plain, armed := run(false), run(true)
	if !reflect.DeepEqual(plain, armed) {
		t.Fatal("EnableMasterRecovery without an outage changed the run")
	}
}

// An outage mid-workload kills every in-flight attempt, defers heartbeats,
// and (report mode) warms back up from one block report per node — and
// every killed attempt's requeue must still carry its job to completion.
func TestMasterOutageKillsInflightAndRequeues(t *testing.T) {
	checks := CheckLedgerAtRecovery(t)
	_, tr := masterFixture(t, 22, 60)
	span := tr.wl.Jobs[len(tr.wl.Jobs)-1].Arrival
	tr.EnableMasterRecovery(32)
	tr.ScheduleMasterOutage(0.3*span, 0.15*span, dfs.RecoverReport)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if r.Failed {
			t.Fatalf("job %d failed: a master crash must requeue, not burn the job", r.ID)
		}
	}
	m := tr.MasterStats()
	if m.Outages != 1 || m.Downtime <= 0 {
		t.Fatalf("stats %+v", m)
	}
	if m.KilledMaps+m.KilledReduces == 0 {
		t.Fatal("mid-workload crash found nothing in flight")
	}
	if m.DeferredHeartbeats == 0 {
		t.Fatal("no heartbeats went unanswered during the outage")
	}
	if m.BlockReports != 10 {
		t.Fatalf("%d block reports, want one per node", m.BlockReports)
	}
	if m.WarmupTime <= 0 {
		t.Fatal("report-mode warmup cost no time")
	}
	if *checks != m.Outages {
		t.Fatalf("ledger compared at %d recoveries, want %d", *checks, m.Outages)
	}
}

// Regression: a node that was blacklisted before the crash and
// re-registered cleanly during the outage must come back forgiven — the
// deferred rejoin's declareUp wipes its blame and nothing resurrects it
// afterwards. A bystander's blame, by contrast, must survive the restart
// record for record.
//
// The victim's third blamed failure lands after it is already blacklisted:
// the live counter and the ledger must both count it (the ledger compare
// at the recovery fails the test if they ever diverge).
func TestOutageRejoinDoesNotResurrectBlacklist(t *testing.T) {
	checks := CheckLedgerAtRecovery(t)
	c, tr := masterFixture(t, 21, 60)
	tr.EnableMasterRecovery(0)
	tr.SetBlacklistAfter(2)
	const victim, bystander = topology.NodeID(3), topology.NodeID(7)
	// blame fails an attempt on n as completeAttempt does: it publishes
	// the blamed TaskFail and hands it to the failure handler.
	blame := func(n topology.NodeID) {
		ev := event.New(event.TaskFail)
		ev.Node = int32(n)
		ev.Flag = true
		tr.bus.Publish(ev)
		tr.faults.taskFailed(ev)
	}
	tr.c.Eng.DeferAt(5, func() {
		blame(victim)
		blame(victim)
		blame(victim)
		blame(bystander)
	})
	tr.ScheduleMasterOutage(10, 8, dfs.RecoverJournal)
	tr.ScheduleNodeFailure(victim, 12)
	tr.ScheduleNodeRecovery(victim, 14)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	if tr.MasterStats().Outages != 1 || *checks != 1 {
		t.Fatalf("outages %d, ledger compared at %d recoveries", tr.MasterStats().Outages, *checks)
	}
	if c.Nodes[victim].Blacklisted {
		t.Fatal("outage-time rejoin did not clear the blacklist")
	}
	if got := tr.faults.nodeTaskFailures[victim]; got != 0 {
		t.Fatalf("the restart resurrected %d blame on the re-registered node", got)
	}
	if got := tr.faults.nodeTaskFailures[bystander]; got != 1 {
		t.Fatalf("bystander blame %d across the restart, want 1", got)
	}
}

// A blacklisted node that dies must not stay blacklisted while down (the
// invariant checker rejects a down blacklisted node), and its rejoin must
// bring it back forgiven, with no failure count carried over.
func TestKilledNodeDropsBlacklist(t *testing.T) {
	c, tr := masterFixture(t, 21, 60)
	tr.SetBlacklistAfter(2)
	const victim = topology.NodeID(3)
	node := c.Nodes[victim]
	tr.c.Eng.DeferAt(5, func() {
		for range 2 {
			ev := event.New(event.TaskFail)
			ev.Node = int32(victim)
			ev.Flag = true
			tr.faults.taskFailed(ev)
		}
		if !node.Blacklisted {
			t.Error("two blamed failures did not blacklist the node")
		}
	})
	tr.ScheduleNodeFailure(victim, 6)
	tr.c.Eng.DeferAt(7, func() {
		if node.Up || node.Blacklisted {
			t.Errorf("killed node: up=%v blacklisted=%v, want both false", node.Up, node.Blacklisted)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("after the kill: %v", err)
		}
	})
	tr.ScheduleNodeRecovery(victim, 8)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if !node.Up || node.Blacklisted {
		t.Fatalf("rejoined node: up=%v blacklisted=%v, want up and not blacklisted", node.Up, node.Blacklisted)
	}
	if got := tr.faults.nodeTaskFailures[victim]; got != 0 {
		t.Fatalf("rejoined node carries %d failure strikes", got)
	}
}

// Heavy blame traffic across two outages: the ledger-vs-live compare runs
// at every recovery, so any drift between the blame the bus reports and
// the live counters fails the test.
func TestJournalRebuildVerifiesUnderInjectedFailures(t *testing.T) {
	checks := CheckLedgerAtRecovery(t)
	_, tr := masterFixture(t, 25, 60)
	span := tr.wl.Jobs[len(tr.wl.Jobs)-1].Arrival
	tr.EnableMasterRecovery(64)
	tr.SetTaskFailureInjection(0.5, stats.NewRNG(5))
	tr.SetBlacklistAfter(2)
	tr.ScheduleMasterOutage(0.25*span, span/16, dfs.RecoverJournal)
	tr.ScheduleMasterOutage(0.6*span, span/16, dfs.RecoverReport)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	if tr.MasterStats().Outages != 2 || *checks != 2 {
		t.Fatalf("outages %d, ledger compared at %d recoveries", tr.MasterStats().Outages, *checks)
	}
}

// An outage scheduled without arming the machinery is a configuration
// error, not a silent no-op.
func TestScheduleOutageWithoutEnableErrors(t *testing.T) {
	_, tr := masterFixture(t, 23, 10)
	tr.ScheduleMasterOutage(5, 2, dfs.RecoverJournal)
	if _, err := tr.Run(); err == nil {
		t.Fatal("outage without EnableMasterRecovery accepted")
	}
}
