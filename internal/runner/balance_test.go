package runner

import (
	"reflect"
	"testing"
)

// TestBalanceStudyDistinction locks in the conceptual point behind
// Fig. 11: byte balance and popularity balance are different goals, and
// only DARE delivers the latter.
func TestBalanceStudyDistinction(t *testing.T) {
	tbl := mustTable(t, balance, Params{Jobs: 300, Seed: testSeed})
	by := rowsBy(t, tbl, "scenario")
	van, bal, dareRow := by["vanilla"], by["hdfs-balancer"], by["dare"]
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	// The balancer does its own job: storage cv improves, at real cost.
	if get(bal, "storage-cv") >= get(van, "storage-cv") {
		t.Fatalf("balancer did not improve storage cv: %.3f -> %.3f", get(van, "storage-cv"), get(bal, "storage-cv"))
	}
	if get(bal, "moved(GB)") == 0 {
		t.Fatal("balancer moved no bytes")
	}
	// ...but it does not do DARE's job: popularity cv stays high.
	if get(bal, "popularity-cv") < 0.6*get(van, "popularity-cv") {
		t.Fatalf("balancer unexpectedly fixed popularity cv: %.3f -> %.3f", get(van, "popularity-cv"), get(bal, "popularity-cv"))
	}
	// DARE fixes popularity cv at zero rearrangement cost.
	if get(dareRow, "popularity-cv") >= 0.6*get(van, "popularity-cv") {
		t.Fatalf("DARE did not flatten popularity cv: %.3f -> %.3f", get(van, "popularity-cv"), get(dareRow, "popularity-cv"))
	}
	if get(dareRow, "moved(GB)") != 0 {
		t.Fatal("DARE should move no dedicated traffic")
	}
}

func TestBalanceStudyDeterministic(t *testing.T) {
	a := mustTable(t, balance, Params{Jobs: 120, Seed: 8})
	b := mustTable(t, balance, Params{Jobs: 120, Seed: 8})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

func TestRenderBalance(t *testing.T) {
	renders(t, balanceCols, []any{"vanilla", 0.1, 0.5, 0.0}, "vanilla", "popularity-cv")
}
