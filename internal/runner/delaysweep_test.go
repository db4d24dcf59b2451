package runner

import (
	"reflect"
	"testing"
)

// TestDelaySweepComplementarity locks in the §VI synergy: at every
// patience level DARE's locality is at least vanilla's, and DARE reaches
// vanilla's high-patience locality with at most half the patience.
func TestDelaySweepComplementarity(t *testing.T) {
	tbl := mustTable(t, delaySweep, Params{Jobs: 400, Seed: testSeed})
	van := map[int]float64{}
	et := map[int]float64{}
	for i, row := range tbl.Rows {
		skips, loc := row[0].(int), num(t, tbl, i, "locality")
		if row[1] == "vanilla" {
			van[skips] = loc
		} else {
			et[skips] = loc
		}
	}
	for _, skips := range []int{1, 2, 4, 8, 16, 32} {
		if et[skips] < van[skips]-0.02 {
			t.Fatalf("skips=%d: DARE locality %.3f below vanilla %.3f", skips, et[skips], van[skips])
		}
	}
	// DARE at patience 4 matches (or beats) vanilla at patience 8: the
	// replicas halve the waiting needed.
	if et[4] < van[8]-0.03 {
		t.Fatalf("DARE@4 %.3f does not reach vanilla@8 %.3f", et[4], van[8])
	}
	// Vanilla locality must grow with patience (delay scheduling works).
	if van[32] <= van[1] {
		t.Fatalf("vanilla locality flat across patience: %.3f -> %.3f", van[1], van[32])
	}
}

func TestDelaySweepDeterministic(t *testing.T) {
	a := mustTable(t, delaySweep, Params{Jobs: 120, Seed: 9})
	b := mustTable(t, delaySweep, Params{Jobs: 120, Seed: 9})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

func TestRenderDelaySweep(t *testing.T) {
	renders(t, delayCols, []any{4, "vanilla", 0.5, 5.0}, "max-skips", "vanilla", "4          vanilla")
}
