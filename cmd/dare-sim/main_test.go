package main

import (
	"errors"
	"path/filepath"
	"testing"

	"dare"
	"dare/internal/core"
)

// TestResolvePolicy pins dare-sim's flag → policy resolution: the -policy
// kind's built-in row with -p/-threshold/-budget applied to every kind,
// -policy-file taking precedence, and out-of-range flags failing with a
// *core.ConfigError before any run.
func TestResolvePolicy(t *testing.T) {
	type flags struct {
		policy, file string
		p            float64
		threshold    int64
		budget       float64
	}
	def := func(policy string) flags { return flags{policy: policy, p: 0.3, threshold: 1, budget: 0.2} }
	scarlettFile := filepath.Join("..", "..", "configs", "scarlett.json")
	for _, c := range []struct {
		name     string
		flags    flags
		want     dare.PolicyConfig
		wantFile string // the -policy-file arm's kind; "" for none
		field    string // the *core.ConfigError field; "" for success
	}{
		{name: "vanilla", flags: def("vanilla"),
			want: dare.PolicyConfig{Kind: dare.Vanilla, P: 0.3, Threshold: 1, BudgetFraction: 0.2}},
		{name: "lru", flags: def("lru"),
			want: dare.PolicyConfig{Kind: dare.GreedyLRU, P: 0.3, Threshold: 1, BudgetFraction: 0.2}},
		{name: "lfu", flags: def("lfu"),
			want: dare.PolicyConfig{Kind: dare.GreedyLFU, P: 0.3, Threshold: 1, BudgetFraction: 0.2}},
		{name: "elephanttrap", flags: def("elephanttrap"),
			want: dare.PolicyConfig{Kind: dare.ElephantTrap, P: 0.3, Threshold: 1, BudgetFraction: 0.2}},
		{name: "alias et", flags: def("et"),
			want: dare.PolicyConfig{Kind: dare.ElephantTrap, P: 0.3, Threshold: 1, BudgetFraction: 0.2}},
		{name: "scarlett keeps its epoch knobs", flags: def("scarlett"),
			want: dare.PolicyConfig{Kind: dare.Scarlett, P: 0.3, Threshold: 1, BudgetFraction: 0.2,
				Epoch: 15, AccessesPerReplica: 4, MaxExtraReplicas: 16}},
		{name: "overrides", flags: flags{policy: "lru", p: 0.7, threshold: 4, budget: 0.05},
			want: dare.PolicyConfig{Kind: dare.GreedyLRU, P: 0.7, Threshold: 4, BudgetFraction: 0.05}},
		{name: "et -p 0 stays 0", flags: flags{policy: "et", p: 0, threshold: 1, budget: 0.2},
			want: dare.PolicyConfig{Kind: dare.ElephantTrap, P: 0, Threshold: 1, BudgetFraction: 0.2}},
		{name: "scarlett -budget 0.1", flags: flags{policy: "scarlett", p: 0.3, threshold: 1, budget: 0.1},
			want: dare.PolicyConfig{Kind: dare.Scarlett, P: 0.3, Threshold: 1, BudgetFraction: 0.1,
				Epoch: 15, AccessesPerReplica: 4, MaxExtraReplicas: 16}},
		{name: "policy file takes precedence",
			flags:    flags{policy: "lru", file: scarlettFile, p: 0.3, threshold: 1, budget: 0.2},
			want:     dare.PolicyConfig{Kind: dare.GreedyLRU, P: 0.3, Threshold: 1, BudgetFraction: 0.2},
			wantFile: "scarlett"},
		{name: "policy file leaves the unused flags unchecked",
			flags:    flags{policy: "lru", file: scarlettFile, p: 1.5, threshold: 1, budget: 0.2},
			want:     dare.PolicyConfig{Kind: dare.GreedyLRU, P: 1.5, Threshold: 1, BudgetFraction: 0.2},
			wantFile: "scarlett"},
		{name: "negative budget", flags: flags{policy: "lru", p: 0.3, threshold: 1, budget: -0.5}, field: "budgetFraction"},
		{name: "negative threshold", flags: flags{policy: "et", p: 0.3, threshold: -1, budget: 0.2}, field: "threshold"},
		{name: "p above 1", flags: flags{policy: "et", p: 1.5, threshold: 1, budget: 0.2}, field: "p"},
		{name: "p above 1 on a kind that ignores it", flags: flags{policy: "vanilla", p: 1.5, threshold: 1, budget: 0.2}, field: "p"},
		{name: "unknown kind", flags: def("zzz"), field: "kind"},
	} {
		f := c.flags
		got, set, err := resolvePolicy(f.policy, f.file, f.p, f.threshold, f.budget)
		if c.field != "" {
			var ce *core.ConfigError
			if !errors.As(err, &ce) || ce.Field != c.field {
				t.Errorf("%s: err %v, want a *core.ConfigError on %q", c.name, err, c.field)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: policy %+v, want %+v", c.name, got, c.want)
		}
		switch {
		case c.wantFile == "" && set != nil:
			t.Errorf("%s: unexpected policy-file arm %q", c.name, set.Kind)
		case c.wantFile != "" && (set == nil || set.Kind != c.wantFile):
			t.Errorf("%s: policy-file arm %+v, want kind %q", c.name, set, c.wantFile)
		}
	}
}
