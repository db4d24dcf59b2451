package runner

import (
	"reflect"
	"testing"
)

// TestAuditReplayDAREWins: replaying the §III access process end-to-end,
// DARE must raise locality and cut fabric traffic versus vanilla — the
// paper's whole thesis in one run.
func TestAuditReplayDAREWins(t *testing.T) {
	tbl := mustTable(t, auditReplay, Params{Jobs: 300, Seed: testSeed})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	by := rowsBy(t, tbl, "policy")
	van, lru := by["vanilla"], by["lru"]
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	if get(lru, "locality") <= get(van, "locality") {
		t.Fatalf("DARE locality %.3f not above vanilla %.3f on the audit replay", get(lru, "locality"), get(van, "locality"))
	}
	if get(lru, "network(GB)") >= get(van, "network(GB)") {
		t.Fatalf("DARE network %.1f GB not below vanilla %.1f GB", get(lru, "network(GB)"), get(van, "network(GB)"))
	}
	if get(lru, "gmtt(s)") >= get(van, "gmtt(s)") {
		t.Fatalf("DARE GMTT %.2f not below vanilla %.2f", get(lru, "gmtt(s)"), get(van, "gmtt(s)"))
	}
	if get(van, "blocks/job") != 0 || get(lru, "blocks/job") == 0 {
		t.Fatal("replication activity accounting wrong")
	}
}

func TestAuditReplayDeterministic(t *testing.T) {
	a := mustTable(t, auditReplay, Params{Jobs: 120, Seed: 3})
	b := mustTable(t, auditReplay, Params{Jobs: 120, Seed: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tables differ between identical runs:\n%s\n%s", a.Render(), b.Render())
	}
}

func TestRenderAuditReplay(t *testing.T) {
	renders(t, auditReplayCols, []any{"vanilla", 0.2, 5.0, 0.0, 90.0}, "vanilla", "network(GB)")
}
