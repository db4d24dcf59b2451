package runner

import (
	"strings"
	"testing"
)

// TestUniformVsAdaptivePremise locks in §III's premise: uniform
// replication buys locality only in proportion to its (large) storage
// cost, while DARE at a 20% budget beats much more expensive uniform
// configurations.
func TestUniformVsAdaptivePremise(t *testing.T) {
	tbl := mustTable(t, uniform, Params{Jobs: 300, Seed: testSeed})
	by := rowsBy(t, tbl, "scenario")
	var factors []int
	for i, row := range tbl.Rows {
		if strings.HasPrefix(row[0].(string), "uniform") {
			factors = append(factors, i)
		}
	}
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	// Locality grows with the uniform factor (more replicas, more chances).
	for k := 1; k < len(factors); k++ {
		prev, cur := factors[k-1], factors[k]
		if get(cur, "locality") < get(prev, "locality")-0.02 {
			t.Fatalf("uniform locality not increasing: x%v %.3f -> x%v %.3f",
				get(prev, "factor"), get(prev, "locality"), get(cur, "factor"), get(cur, "locality"))
		}
	}
	dareRow, x6 := by["DARE x3 + 20% budget"], by["uniform x6"]
	if get(dareRow, "locality") <= get(x6, "locality")-0.02 {
		t.Fatalf("DARE at 20%% storage (%.3f) should rival uniform x6 at 100%% (%.3f)",
			get(dareRow, "locality"), get(x6, "locality"))
	}
	if get(dareRow, "extra storage%") >= get(x6, "extra storage%")/2 {
		t.Fatal("storage accounting wrong")
	}
}

// TestRenderUniform pins the percent column: its verb appends a literal
// "%", so the header is one wider than the number.
func TestRenderUniform(t *testing.T) {
	renders(t, uniformCols, []any{"uniform x3", 3, 0.2, 5.0, 0.0}, "uniform x3", "  extra storage%\n", "             0%\n")
}
