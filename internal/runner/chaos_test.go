package runner

import (
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// One seeded chaos run must exercise the gray machinery end to end and
// still complete every job with consistent metadata (the invariant checker
// runs after every failure and gray event).
func TestRunWithChaosCompletesAndChecks(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	profile.SpeculativeExecution = true
	wl := truncate(workload.WL1(11), 80)
	out, err := Run(Options{
		Profile:         profile,
		Workload:        wl,
		Scheduler:       "fair",
		Policy:          PolicyFor(core.GreedyLRUPolicy),
		Seed:            11,
		Chaos:           &ChaosSpec{},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := out.Gray
	if g.Degrades+g.CorruptionsInjected+g.Flaps == 0 {
		t.Fatalf("default chaos spec injected nothing: %+v", g)
	}
	if g.CorruptionsDetected > g.CorruptionsInjected {
		t.Fatalf("detected %d > injected %d", g.CorruptionsDetected, g.CorruptionsInjected)
	}
	if g.HedgeWins > g.HedgedReads {
		t.Fatalf("hedge wins %d > hedged reads %d", g.HedgeWins, g.HedgedReads)
	}
	if len(out.Results) != 80 {
		t.Fatalf("results %d", len(out.Results))
	}
}

// Two same-seed chaos studies must agree exactly: the scenario, the gray
// RNG, and every arm's run are pure functions of the seed.
func TestChaosStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("12 full runs")
	}
	p := Params{Jobs: 60, Seed: 7, Check: true}
	a := mustTable(t, chaosStudy, p)
	b := mustTable(t, chaosStudy, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos study rows differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
	if len(a.Rows) != 6 {
		t.Fatalf("arms %d, want 6", len(a.Rows))
	}
	// The scenario generator draws from its own seed stream, so every arm
	// faces the identical injection schedule.
	for i := range a.Rows[1:] {
		for _, head := range []string{"crash", "flap", "degrade", "corrupt"} {
			if num(t, a, i+1, head) != num(t, a, 0, head) {
				t.Fatalf("arms saw different injection schedules:\n%s", a.Render())
			}
		}
	}
}

// A positive MasterWeight folds control-plane outages into the chaos mix:
// the master crashes at least once and every job still completes under the
// invariant checker.
func TestChaosWithMasterWeight(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	wl := truncate(workload.WL1(5), 80)
	out, err := Run(Options{
		Profile:   profile,
		Workload:  wl,
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      5,
		Chaos: &ChaosSpec{
			Events:         24,
			MasterWeight:   3,
			MasterRecovery: "report",
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Master.Outages == 0 {
		t.Fatal("MasterWeight=3 over 24 draws never crashed the master")
	}
	if out.Master.BlockReports == 0 {
		t.Fatal("report-mode chaos recovery delivered no block reports")
	}
	if len(out.Results) != 80 {
		t.Fatalf("results %d", len(out.Results))
	}
}

// Disabling every class but corruption must produce a corruption-only
// scenario (negative weights disable; the resolver maps them to zero).
func TestChaosSpecClassDisable(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	wl := truncate(workload.WL1(3), 60)
	out, err := Run(Options{
		Profile:   profile,
		Workload:  wl,
		Scheduler: "fifo",
		Seed:      3,
		Chaos:     &ChaosSpec{CrashWeight: -1, SlowWeight: -1, FlapWeight: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := out.Gray
	if g.Degrades != 0 || g.Flaps != 0 || len(out.FailureEvents) != 0 {
		t.Fatalf("disabled classes fired: %+v, failures %d", g, len(out.FailureEvents))
	}
	if g.CorruptionsInjected == 0 {
		t.Fatal("corruption-only scenario injected nothing")
	}
}
