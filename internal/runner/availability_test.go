package runner

import (
	"reflect"
	"testing"
)

// TestAvailabilityDAREProtectsPopularData locks in the §IV-B claim:
// DARE's dynamic replicas raise the availability of the data users
// actually read when nodes fail.
func TestAvailabilityDAREProtectsPopularData(t *testing.T) {
	tbl := mustTable(t, availability, Params{Jobs: 400, Seed: testSeed})
	by := rowsBy(t, tbl, "policy")
	van, lru, et := by["vanilla"], by["lru"], by["elephanttrap"]
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	if get(van, "dyn-replicas") != 0 {
		t.Fatal("vanilla run should hold no dynamic replicas")
	}
	if get(lru, "dyn-replicas") == 0 || get(et, "dyn-replicas") == 0 {
		t.Fatal("DARE runs should hold dynamic replicas at failure time")
	}
	// Access-weighted availability: DARE at least matches vanilla and the
	// greedy policy (which replicates most) strictly improves it.
	if get(lru, "weighted-avail") < get(van, "weighted-avail") {
		t.Fatalf("LRU weighted availability %.4f below vanilla %.4f",
			get(lru, "weighted-avail"), get(van, "weighted-avail"))
	}
	if get(et, "weighted-avail") < get(van, "weighted-avail")-1e-9 {
		t.Fatalf("ET weighted availability %.4f below vanilla %.4f",
			get(et, "weighted-avail"), get(van, "weighted-avail"))
	}
	// Sanity: availabilities are probabilities and failures did bite.
	for i, row := range tbl.Rows {
		a := get(i, "block-avail")
		if a <= 0 || a > 1 {
			t.Fatalf("%s block availability %v", row[0], a)
		}
		if a == 1 {
			t.Fatalf("%s: failures did not reduce availability; experiment is vacuous", row[0])
		}
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	a := mustTable(t, availability, Params{Jobs: 150, Seed: 5})
	b := mustTable(t, availability, Params{Jobs: 150, Seed: 5})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

// TestAvailabilityDefaults: Jobs <= 0 runs the full 500-job trace, and
// every arm loses the same batch of four nodes.
func TestAvailabilityDefaults(t *testing.T) {
	tbl := mustTable(t, availability, Params{Seed: 7})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if num(t, tbl, i, "failed") != 4 {
			t.Fatalf("defaults not applied:\n%s", tbl.Render())
		}
	}
}

func TestRenderAvailability(t *testing.T) {
	renders(t, availabilityCols, []any{"vanilla", 4, 0.97, 0.99, int64(0)}, "vanilla", "weighted-avail")
}
