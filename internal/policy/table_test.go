package policy_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/policy"
)

// readTables decodes a JSON array of tables: exactly one value, no
// unknown keys, and every table named and with a rule.
func readTables(r io.Reader) ([]*policy.Table, error) {
	var tables []*policy.Table
	if err := config.DecodeStrict(r, &tables); err != nil {
		return nil, fmt.Errorf("policy: decode tables: %w", err)
	}
	for i, t := range tables {
		if t.Name == "" {
			return nil, fmt.Errorf("policy: table %d has no name", i)
		}
		if t.Rule == nil {
			return nil, fmt.Errorf("policy: table %q has no rule", t.Name)
		}
	}
	return tables, nil
}

// loadTables reads every *.json file under dir in name order and
// concatenates their tables — the `opa test <dir>` shape.
func loadTables(dir string) ([]*policy.Table, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var all []*policy.Table
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		tables, err := readTables(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		all = append(all, tables...)
	}
	return all, nil
}

// TestTestdataTables is the `opa test testdata/` equivalent: every table
// under testdata/ must compile and every row must match.
func TestTestdataTables(t *testing.T) {
	tables, err := loadTables("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 10 {
		t.Fatalf("expected at least 10 tables in testdata, got %d", len(tables))
	}
	for _, tab := range tables {
		res := policy.RunTable(tab)
		if res.Err != nil {
			t.Errorf("table %s: compile: %v", res.Table, res.Err)
			continue
		}
		for _, rr := range res.Rows {
			if !rr.Pass {
				t.Errorf("table %s row %s: got %v want %v (given %v)",
					res.Table, rr.Row.Name, rr.Got, rr.Row.Want, rr.Row.Given)
			}
		}
	}
}

func TestRunTableReportsFailures(t *testing.T) {
	tab := &policy.Table{
		Name: "fails",
		Rule: &policy.RuleSpec{Rule: "allow"},
		Rows: []policy.TableRow{
			{Name: "wrong", Given: map[string]float64{}, Want: false},
			{Name: "right", Given: map[string]float64{}, Want: true},
		},
	}
	res := policy.RunTable(tab)
	if res.Pass() || res.Failed != 1 {
		t.Fatalf("expected exactly one failing row, got %+v", res)
	}
}

func TestRunTableCompileError(t *testing.T) {
	res := policy.RunTable(&policy.Table{Name: "bad", Rule: &policy.RuleSpec{Rule: "bogus"}})
	if res.Pass() || res.Err == nil {
		t.Fatal("compile error should fail the table")
	}
}

func TestReadTablesValidates(t *testing.T) {
	for _, row := range []struct{ name, in string }{
		{"unnamed table", `[{"rule":{"rule":"allow"}}]`},
		{"ruleless table", `[{"name":"x"}]`},
		{"unknown field", `[{"name":"x","rule":{"rule":"allow"},"bogus":1}]`},
		{"trailing data", `[{"name":"x","rule":{"rule":"allow"}}] [{"name":"y","rule":{"rule":"deny"}}]`},
	} {
		if _, err := readTables(strings.NewReader(row.in)); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
	}
	if _, err := readTables(strings.NewReader(`[{"name":"x","rule":{"rule":"allow"}}]` + "\n")); err != nil {
		t.Fatalf("one array and a newline rejected: %v", err)
	}
}
