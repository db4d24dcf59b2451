package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/workload"
)

// A switch failure in the same instant the master recovers (ROADMAP
// fault-interplay defect 2) fires while the master is still down. Its
// nodes die on the data plane and their death declarations wait for the
// recovery like any other outage-time death, so the tracker and the name
// node agree once the master is back. The cluster and workload are
// TestOffersAreDemandGated's; the invariant checker runs after every node
// and master event and aborts the run on the first disagreement.
func TestLifecycleRackFailureAtMasterRecovery(t *testing.T) {
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 4
	c, err := mapreduce.NewCluster(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: 120, NumFiles: 15, Seed: 5})
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFair(3))
	if err != nil {
		t.Fatal(err)
	}
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	tr.SetInvariantChecks(true)
	tr.EnableMasterRecovery(16)
	tr.ScheduleMasterOutage(0.4*span, 0.1*span, dfs.RecoverJournal)
	tr.ScheduleRackFailure(2, 0.5*span)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	if len(results) != len(wl.Jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(wl.Jobs))
	}
	// Rack 2 is nodes 8..11. Each death is declared at the recovery, as an
	// independent failure: the master never saw the switch go.
	recoverAt := 0.4*span + 0.1*span
	fails := tr.FailureEvents()
	if len(fails) != p.RackSize {
		t.Fatalf("%d failure records, want one per rack-2 node", len(fails))
	}
	for i, fe := range fails {
		if want := 2*p.RackSize + i; int(fe.Node) != want || fe.Rack != -1 || fe.Time != recoverAt {
			t.Fatalf("failure record %d = node %d rack %d at %g, want node %d rack -1 at %g",
				i, fe.Node, fe.Rack, fe.Time, want, recoverAt)
		}
		if c.Nodes[fe.Node].Up || !c.NN.NodeFailed(fe.Node) {
			t.Fatalf("node %d: up=%v failed=%v after the run, want down and failed",
				fe.Node, c.Nodes[fe.Node].Up, c.NN.NodeFailed(fe.Node))
		}
	}
}
