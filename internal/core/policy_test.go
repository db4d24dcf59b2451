package core

import (
	"testing"

	"dare/internal/config"
)

// TestPolicyKindsMatchTable: core's kind→name array and config's kind
// table cannot drift. Every row parses to a kind named by the row, every
// kind has a row, and the kind values a checkpoint serialises stay put.
func TestPolicyKindsMatchTable(t *testing.T) {
	for _, row := range config.PolicyRows {
		k, err := ParsePolicyKind(row.Name)
		if err != nil || k.String() != row.Name {
			t.Errorf("row %q parses to %v (%v)", row.Name, k, err)
		}
	}
	for k := PolicyKind(0); k.valid(); k++ {
		if _, err := config.LookupPolicy(k.String()); err != nil {
			t.Errorf("kind %d (%s) has no config row", int(k), k)
		}
	}
	for want, k := range []PolicyKind{NonePolicy, GreedyLRUPolicy, ElephantTrapPolicy, ScarlettPolicy, GreedyLFUPolicy} {
		if int(k) != want {
			t.Errorf("%s = %d, want %d (a checkpoint spec serialises the int)", k, int(k), want)
		}
	}
	if n := len(kindNames); n != 5 || len(config.PolicyRows) != n {
		t.Errorf("%d kinds, %d rows, want 5 each", n, len(config.PolicyRows))
	}
}
