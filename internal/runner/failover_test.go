package runner

import (
	"bytes"
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/mapreduce"
	"dare/internal/workload"
)

// One run with a journal-mode and a report-mode outage must survive both
// crashes, complete every job, and keep the metadata consistent (the
// invariant checker fires on every node-lifecycle and master-recovery
// event).
func TestRunWithMasterOutagesCompletesAndChecks(t *testing.T) {
	for _, mode := range []string{"journal", "report"} {
		profile := config.CCT()
		profile.RackSize = 5
		profile.ReplicationFactor = 2
		wl := truncate(workload.WL1(11), 80)
		span := wl.Jobs[len(wl.Jobs)-1].Arrival
		out, err := Run(Options{
			Profile:   profile,
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    PolicyFor(core.ElephantTrapPolicy),
			Seed:      11,
			MasterOutages: []MasterOutage{
				{At: 0.3 * span, Down: span / 12, Mode: mode},
			},
			MasterCheckpointEvery: 64,
			CheckInvariants:       true,
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		m := out.Master
		if m.Outages != 1 {
			t.Fatalf("%s: outages %d, want 1", mode, m.Outages)
		}
		if m.Downtime <= 0 {
			t.Fatalf("%s: downtime %g", mode, m.Downtime)
		}
		if m.DeferredHeartbeats == 0 {
			t.Fatalf("%s: no heartbeats deferred across a %g-second outage", mode, span/12)
		}
		if mode == "report" {
			if m.BlockReports != profile.Slaves {
				t.Fatalf("report: %d block reports, want %d (one per live node)", m.BlockReports, profile.Slaves)
			}
			if m.WarmupTime <= 0 {
				t.Fatal("report: warming cost no time")
			}
		} else {
			if m.BlockReports != 0 || m.WarmupTime != 0 {
				t.Fatalf("journal: reports %d warmup %g, want 0/0", m.BlockReports, m.WarmupTime)
			}
			if m.JournalCheckpoints == 0 {
				t.Fatal("journal: no checkpoints rolled with every=64")
			}
		}
		if len(out.Results) != 80 {
			t.Fatalf("%s: results %d", mode, len(out.Results))
		}
		if len(out.MasterEvents) == 0 {
			t.Fatalf("%s: no master availability samples", mode)
		}
	}
}

// Two same-seed runs with identical master outages must produce
// byte-identical event traces: the whole crash/recovery path is a pure
// function of the options.
func TestMasterOutageTraceDeterministic(t *testing.T) {
	trace := func() []byte {
		profile := config.CCT()
		profile.RackSize = 5
		profile.ReplicationFactor = 2
		wl := truncate(workload.WL1(7), 60)
		span := wl.Jobs[len(wl.Jobs)-1].Arrival
		var buf bytes.Buffer
		_, err := Run(Options{
			Profile:   profile,
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    PolicyFor(core.GreedyLRUPolicy),
			Seed:      7,
			MasterOutages: []MasterOutage{
				{At: 0.25 * span, Down: span / 16, Mode: "journal"},
				{At: 0.6 * span, Down: span / 16, Mode: "report"},
			},
			CheckInvariants: true,
			EventLog:        &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := trace(), trace()
	if !bytes.Equal(a, b) {
		t.Fatalf("event traces differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// Master outages riding on churn: nodes die and rejoin WHILE the master is
// down, and the deferred declarations apply at recovery without tripping
// the invariant checker.
func TestMasterOutageWithChurn(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	wl := truncate(workload.WL1(13), 80)
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	out, err := Run(Options{
		Profile:   profile,
		Workload:  wl,
		Scheduler: "fifo",
		Seed:      13,
		Churn:     &ChurnSpec{MTTF: span / 2, MTTR: span / 8},
		MasterOutages: []MasterOutage{
			{At: 0.2 * span, Down: span / 8, Mode: "journal"},
			{At: 0.55 * span, Down: span / 8, Mode: "report"},
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Master.Outages != 2 {
		t.Fatalf("outages %d, want 2", out.Master.Outages)
	}
	if len(out.Results) != 80 {
		t.Fatalf("results %d", len(out.Results))
	}
}

// Two same-seed failover studies must agree exactly, and the journal/report
// contrast must show up in the rows.
func TestFailoverStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("8 full runs")
	}
	p := Params{Jobs: 60, Seed: 7, Check: true}
	a := mustTable(t, failoverStudy, p)
	b := mustTable(t, failoverStudy, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("failover study rows differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
	if len(a.Rows) != 4 {
		t.Fatalf("arms %d, want 4", len(a.Rows))
	}
	for i, row := range a.Rows {
		if n := num(t, a, i, "outages"); n != 2 {
			t.Fatalf("arm %s/%s saw %v outages, want 2", row[0], row[1], n)
		}
		if av := num(t, a, i, "master-avail"); av <= 0 || av >= 1 {
			t.Fatalf("arm %s/%s master availability %g outside (0,1)", row[0], row[1], av)
		}
		switch row[1] {
		case "journal":
			if n := num(t, a, i, "reports"); n != 0 {
				t.Fatalf("journal arm delivered %v block reports", n)
			}
		case "report":
			if num(t, a, i, "reports") == 0 || num(t, a, i, "warmup") <= 0 {
				t.Fatalf("report arm never warmed: %v", row)
			}
		}
	}
}

// masterAvailability integrates the sample timeline as a step function.
func TestMasterAvailabilityIntegration(t *testing.T) {
	// Perfect run, no events: full availability.
	if got := masterAvailability(nil, 100); got != 1 {
		t.Fatalf("no events: %g, want 1", got)
	}
	// Down for [10, 30) of 100, full view before and after: 80%.
	evs := []mapreduce.MasterEvent{
		{Time: 10, Kind: mapreduce.MasterWentDown, WeightedAvailability: 1},
		{Time: 30, Kind: mapreduce.MasterCameBack, WeightedAvailability: 1},
	}
	if got := masterAvailability(evs, 100); got != 0.8 {
		t.Fatalf("20%% downtime: %g, want 0.8", got)
	}
	// Report mode: down [10,30), warms to 0.5 at 30, full at 40: the
	// integral is 10*1 + 20*0 + 10*0.5 + 60*1 = 75.
	evs = []mapreduce.MasterEvent{
		{Time: 10, Kind: mapreduce.MasterWentDown, WeightedAvailability: 1},
		{Time: 30, Kind: mapreduce.MasterCameBack, WeightedAvailability: 0.5},
		{Time: 40, Kind: mapreduce.MasterGotReport, WeightedAvailability: 1},
	}
	if got := masterAvailability(evs, 100); got != 0.75 {
		t.Fatalf("warming curve: %g, want 0.75", got)
	}
}
