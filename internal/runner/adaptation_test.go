package runner

import (
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// TestAdaptationReactiveBeatsEpochBased locks in the §VI claim: after a
// popularity shift, the reactive DARE recovers its locality faster than
// the epoch-based Scarlett baseline, and does so without spending any
// network traffic on replica creation.
func TestAdaptationReactiveBeatsEpochBased(t *testing.T) {
	tbl := mustTable(t, adaptation, Params{Jobs: 500, Seed: testSeed})
	by := rowsBy(t, tbl, "policy")
	van, et, scar := by["vanilla"], by["elephanttrap"], by["scarlett"]
	q := func(row int, head string) float64 { return num(t, tbl, row, head) }
	// Pre-shift (Q2): both replication schemes beat vanilla.
	if q(et, "Q2") <= q(van, "Q2") {
		t.Fatalf("DARE Q2 %.3f not above vanilla %.3f", q(et, "Q2"), q(van, "Q2"))
	}
	if q(scar, "Q2") <= q(van, "Q2") {
		t.Fatalf("Scarlett Q2 %.3f not above vanilla %.3f", q(scar, "Q2"), q(van, "Q2"))
	}
	// Immediately post-shift (Q3): the reactive scheme is already above
	// vanilla — it needs no epoch boundary to start re-replicating.
	if q(et, "Q3*") <= q(van, "Q3*") {
		t.Fatalf("DARE Q3 %.3f not above vanilla %.3f right after the shift", q(et, "Q3*"), q(van, "Q3*"))
	}
	// Post-shift steady state (Q4): DARE above vanilla again.
	if q(et, "Q4") <= q(van, "Q4") {
		t.Fatalf("DARE Q4 %.3f not above vanilla %.3f", q(et, "Q4"), q(van, "Q4"))
	}
	// Relative dip at the shift: the reactive scheme's locality falls by
	// no deeper a fraction of its own pre-shift level than the epoch
	// scheme's (small tolerance — both are stochastic).
	dip := func(row int) float64 {
		if q(row, "Q2") == 0 {
			return 0
		}
		return (q(row, "Q2") - q(row, "Q3*")) / q(row, "Q2")
	}
	if dip(et) > dip(scar)+0.10 {
		t.Fatalf("DARE dip %.2f much deeper than Scarlett %.2f", dip(et), dip(scar))
	}
	// Network cost: DARE and vanilla pay nothing for replication;
	// Scarlett's proactive copies move real bytes.
	if q(et, "repl-net(MB)") != 0 || q(van, "repl-net(MB)") != 0 {
		t.Fatal("DARE/vanilla replication must be free of network cost")
	}
	if q(scar, "repl-net(MB)") == 0 {
		t.Fatal("Scarlett replication should cost network traffic")
	}
}

func TestAdaptationDeterministic(t *testing.T) {
	a := mustTable(t, adaptation, Params{Jobs: 150, Seed: 9})
	b := mustTable(t, adaptation, Params{Jobs: 150, Seed: 9})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

func TestRenderAdaptation(t *testing.T) {
	renders(t, adaptationCols, []any{"vanilla", 0.1, 0.2, 0.2, 0.1, 0.5, 0.0}, "vanilla", "recovery", "Q3*")
}

// TestScarlettRunIntegration: a full run with the Scarlett policy keeps
// the DFS consistent and reports its stats through the standard Output.
func TestScarlettRunIntegration(t *testing.T) {
	wl := truncate(workload.WL2(testSeed), 200)
	out, err := Run(Options{
		Profile:   config.CCT(),
		Workload:  wl,
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ScarlettPolicy),
		Seed:      testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PolicyName != "scarlett" {
		t.Fatalf("policy name %q", out.PolicyName)
	}
	if out.Summary.ReplicasCreated == 0 {
		t.Fatal("Scarlett created no replicas")
	}
	if out.ExtraNetworkBytes == 0 {
		t.Fatal("Scarlett replication should cost network bytes")
	}
}
