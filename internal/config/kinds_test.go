package config

import (
	"strings"
	"testing"

	"dare/internal/policy"
)

func TestRegistry(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"vanilla", "vanilla"}, {"none", "vanilla"}, {"off", "vanilla"},
		{"lru", "lru"}, {"greedy", "lru"},
		{"lfu", "lfu"},
		{"elephanttrap", "elephanttrap"}, {"et", "elephanttrap"}, {"probabilistic", "elephanttrap"},
		{"scarlett", "scarlett"}, {"epoch", "scarlett"},
		{"  LRU ", "lru"}, {"ET", "elephanttrap"},
	} {
		row, err := LookupPolicy(c.in)
		if err != nil || row.Name != c.want {
			t.Errorf("LookupPolicy(%q) = %q,%v want %q", c.in, row.Name, err, c.want)
		}
	}
	if _, err := LookupPolicy("bogus"); err == nil {
		t.Fatal("bogus should not resolve")
	}
	if got, want := PolicyNameList(), "vanilla|lru|lfu|elephanttrap|scarlett"; got != want {
		t.Fatalf("PolicyNameList() = %q want %q", got, want)
	}
	if msg := ErrUnknownPolicy("zzz").Error(); !strings.Contains(msg, `"zzz"`) || !strings.Contains(msg, PolicyNameList()) {
		t.Fatalf("error message %q missing parts", msg)
	}
	table := RenderPolicyNameTable()
	for _, row := range PolicyRows {
		if !strings.Contains(table, "`"+row.Name+"`") {
			t.Fatalf("table missing %s:\n%s", row.Name, table)
		}
	}
}

func TestDefaultRuleSetShapes(t *testing.T) {
	rules := func(name string, p float64, threshold int) policy.RuleSet {
		t.Helper()
		row, err := LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return row.Rules(p, threshold)
	}
	if rs := rules("vanilla", 0.3, 1); rs != (policy.RuleSet{}) {
		t.Fatalf("vanilla runs no rule: %+v", rs)
	}
	for _, k := range []string{"lru", "lfu"} {
		rs := rules(k, 0, 0)
		if rs.Admit.Rule != "allow" || rs.Victim == nil || rs.Aged != nil {
			t.Fatalf("%s default set wrong shape: %+v", k, rs)
		}
	}
	rs := rules("elephanttrap", 0.3, 2)
	if rs.Admit.Rule != "probability" || rs.Admit.P != 0.3 {
		t.Fatal("ET admit")
	}
	if rs.Aged == nil || rs.Aged.Value != 2 {
		t.Fatal("ET aged threshold")
	}
	if rs := rules("scarlett", 4, 0); rs.Admit.Rule != "threshold" || rs.Admit.Value != 4 {
		t.Fatal("scarlett grow gate")
	}
}
