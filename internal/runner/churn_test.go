package runner

import (
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/topology"
	"dare/internal/workload"
)

// TestChurnStudyInvariantsAcrossSeeds is the acceptance gate for the churn
// subsystem: the full study (both schedulers × three policies) must run to
// completion with the metadata invariant checker firing after every
// failure/recovery event, across several seeds.
func TestChurnStudyInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm churn matrix")
	}
	for _, seed := range []uint64{1, 7, 42} {
		tbl := mustTable(t, churnStudy, Params{Jobs: 120, Seed: seed, Check: true})
		if len(tbl.Rows) != 6 {
			t.Fatalf("seed %d: %d rows, want 6", seed, len(tbl.Rows))
		}
		for i, row := range tbl.Rows {
			if a := num(t, tbl, i, "mean-avail"); a <= 0 || a > 1 {
				t.Errorf("seed %d %s/%s: mean availability %v out of range", seed, row[0], row[1], a)
			}
			if num(t, tbl, i, "fails") == 0 {
				t.Errorf("seed %d %s/%s: churn generated no failures", seed, row[0], row[1])
			}
			if num(t, tbl, i, "rejoin") == 0 {
				t.Errorf("seed %d %s/%s: churn generated no recoveries", seed, row[0], row[1])
			}
		}
	}
}

// TestChurnStudyDAREBeatsVanilla pins the §IV-B claim the experiment
// exists to demonstrate: under identical churn, the DARE arms keep more
// access-weighted data readable than vanilla, because hot blocks carry
// extra dynamic replicas when failures land.
func TestChurnStudyDAREBeatsVanilla(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm churn matrix")
	}
	tbl := mustTable(t, churnStudy, Params{Jobs: 120, Seed: 7})
	byArm := rowsBy(t, tbl, "sched", "policy")
	for _, sched := range []string{"fifo", "fair"} {
		vanilla := byArm[sched+"/"+core.NonePolicy.String()]
		for _, pol := range []core.PolicyKind{core.GreedyLRUPolicy, core.ElephantTrapPolicy} {
			dare := byArm[sched+"/"+pol.String()]
			if d, v := num(t, tbl, dare, "mean-avail"), num(t, tbl, vanilla, "mean-avail"); d <= v {
				t.Errorf("%s/%s mean availability %.4f did not beat vanilla %.4f", sched, pol, d, v)
			}
			if d, v := num(t, tbl, dare, "lost"), num(t, tbl, vanilla, "lost"); d > v {
				t.Errorf("%s/%s lost %v blocks, more than vanilla's %v", sched, pol, d, v)
			}
		}
	}
}

// TestChurnStudyDeterministic: the experiment is a pure function of
// (jobs, seed, spec) — rerunning must reproduce every row bit for bit.
// This is the property the CI determinism gate checks end to end through
// the CLI.
func TestChurnStudyDeterministic(t *testing.T) {
	a := mustTable(t, churnStudy, Params{Jobs: 80, Seed: 11})
	b := mustTable(t, churnStudy, Params{Jobs: 80, Seed: 11})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("churn study not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

// TestRunWithChurnSpec drives the Options.Churn path directly (the
// dare-sim -churn wiring) and checks the generated schedule respects the
// cluster: at least one node stays up, and every recovery event pairs with
// an earlier failure of the same node.
func TestRunWithChurnSpec(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	wl := truncate(workload.WL1(3), 80)
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	spec := DefaultChurnSpec(span, profile.Slaves)
	out, err := Run(Options{
		Profile:         profile,
		Workload:        wl,
		Scheduler:       "fifo",
		Policy:          PolicyFor(core.ElephantTrapPolicy),
		Seed:            3,
		Churn:           &spec,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.FailureEvents) == 0 {
		t.Fatal("default churn spec produced no failures")
	}
	// A node may fail and rejoin several times; every recovery must be
	// preceded by at least one failure of the same node.
	firstDown := make(map[topology.NodeID]float64)
	for _, ev := range out.FailureEvents {
		if at, ok := firstDown[ev.Node]; !ok || ev.Time < at {
			firstDown[ev.Node] = ev.Time
		}
	}
	for _, rec := range out.RecoveryEvents {
		fallAt, ok := firstDown[rec.Node]
		if !ok || rec.Time < fallAt {
			t.Errorf("recovery of node %d at %g without an earlier failure", rec.Node, rec.Time)
		}
	}
	if len(out.Results) != 80 {
		t.Fatalf("results %d", len(out.Results))
	}
}
