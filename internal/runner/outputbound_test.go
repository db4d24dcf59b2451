package runner

import (
	"reflect"
	"testing"
)

// TestOutputBoundGapUntouched operationalizes §V-C: "Dynamic replication
// does not expedite output-bound tasks, whose turnaround time is
// dominated by output processing." The output-write pipeline makes
// output-bound jobs substantially slower than input-bound ones, and DARE
// — which only accelerates input reads — must leave that gap essentially
// intact.
func TestOutputBoundGapUntouched(t *testing.T) {
	tbl := mustTable(t, outputBound, Params{Jobs: 400, Seed: testSeed})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	by := rowsBy(t, tbl, "class")
	in, out := by["input-bound"], by["output-bound"]
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	if get(in, "jobs") == 0 || get(out, "jobs") == 0 {
		t.Fatalf("empty class:\n%s", tbl.Render())
	}
	// The write pipeline is visible: output-bound jobs are much slower
	// under both policies.
	if get(out, "vanilla-gmtt") < 1.2*get(in, "vanilla-gmtt") {
		t.Fatalf("output-bound vanilla GMTT %.2f not clearly above input-bound %.2f", get(out, "vanilla-gmtt"), get(in, "vanilla-gmtt"))
	}
	if get(out, "dare-gmtt") < 1.2*get(in, "dare-gmtt") {
		t.Fatalf("output-bound DARE GMTT %.2f not clearly above input-bound %.2f", get(out, "dare-gmtt"), get(in, "dare-gmtt"))
	}
	// DARE cannot close the output-processing gap: the absolute
	// service-time gap between the classes survives replication.
	gapVanilla := get(out, "vanilla-gmtt") - get(in, "vanilla-gmtt")
	gapDare := get(out, "dare-gmtt") - get(in, "dare-gmtt")
	if gapDare < 0.7*gapVanilla {
		t.Fatalf("DARE closed the output gap (%.2f -> %.2f); it should not touch output processing", gapVanilla, gapDare)
	}
	// Neither class regresses materially.
	for i, row := range tbl.Rows {
		if r := get(i, "reduction%"); r < -3 {
			t.Fatalf("%s regressed by %.1f%%", row[0], -r)
		}
	}
}

func TestOutputBoundDeterministic(t *testing.T) {
	a := mustTable(t, outputBound, Params{Jobs: 150, Seed: 5})
	b := mustTable(t, outputBound, Params{Jobs: 150, Seed: 5})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

func TestRenderOutputBound(t *testing.T) {
	renders(t, outputBoundCols, []any{"input-bound", 10, 5.0, 4.5, 10.0}, "input-bound", "reduction%")
}
