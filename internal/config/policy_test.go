package config

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/policy"
	"dare/internal/stats"
)

// armScalars is the comparable scalar slice of a PolicySet.
type armScalars struct {
	kind               string
	p                  float64
	threshold          int64
	budget             float64
	epoch              float64
	accessesPerReplica float64
	maxExtraReplicas   int
}

func scalarsOf(s *PolicySet) armScalars {
	return armScalars{s.Kind, s.P, s.Threshold, s.Budget, s.Epoch, s.AccessesPerReplica, s.MaxExtraReplicas}
}

func TestBuiltinPolicySpecsMatchCLIDefaults(t *testing.T) {
	// A built-in file arm must build to the same scalars the CLI flag path
	// produces, so -policy X and -policy-file configs/X.json are one
	// experiment.
	for _, c := range []struct {
		name string
		want armScalars
	}{
		{"vanilla", armScalars{kind: "vanilla", p: 0.3, threshold: 1, budget: 0.2}},
		{"lru", armScalars{kind: "lru", p: 0.3, threshold: 1, budget: 0.2}},
		{"lfu", armScalars{kind: "lfu", p: 0.3, threshold: 1, budget: 0.2}},
		{"elephanttrap", armScalars{kind: "elephanttrap", p: 0.3, threshold: 1, budget: 0.2}},
		{"scarlett", armScalars{kind: "scarlett", p: 0.3, threshold: 1, budget: 0.2,
			epoch: 15, accessesPerReplica: 4, maxExtraReplicas: 16}},
	} {
		set, err := BuiltinPolicy(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := scalarsOf(set); got != c.want {
			t.Errorf("%s: scalars = %+v, want %+v", c.name, got, c.want)
		}
		if set.Name != c.name {
			t.Errorf("%s: Name = %q", c.name, set.Name)
		}
		if set.Repair != nil || set.Speculation != nil || set.Blacklist != nil || set.FailJob != nil {
			t.Errorf("%s: built-in must carry no overrides", c.name)
		}
	}
	if _, err := BuiltinPolicy("bogus"); err == nil {
		t.Fatal("unknown builtin should error")
	}
	// Aliases resolve through the registry.
	set, err := BuiltinPolicy("et")
	if err != nil || set.Name != "elephanttrap" {
		t.Fatalf("alias et: %v, %+v", err, set)
	}
}

func TestReadPolicyFullSpec(t *testing.T) {
	src := `{
  "name": "bandit",
  "kind": "et",
  "budget": 0.2,
  "replication": {"admit": {"rule": "epsilongreedy", "epsilon": 0.1, "window": 30, "arms": [
    {"rule": "probability", "p": 0.1},
    {"rule": "probability", "p": 0.3},
    {"rule": "probability", "p": 1}
  ]}},
  "repair": [{"key": "rack_fresh", "weight": 1}, {"key": "load", "weight": -1}],
  "speculation": {"rule": "threshold", "key": "elapsed", "op": ">", "of": "mean_map", "factor": 2},
  "blacklist": {"rule": "ratewindow", "window": 120, "atLeast": 3},
  "failJob": {"rule": "threshold", "key": "attempts", "op": ">=", "value": 6}
}`
	set, err := ReadPolicy(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if set.Name != "bandit" || set.Kind != "elephanttrap" {
		t.Fatalf("set: %+v", set)
	}
	if set.Replication == nil || set.Replication.Admit == nil || set.Replication.Admit.Rule != "epsilongreedy" {
		t.Fatal("replication admit rule not threaded into the set")
	}
	if len(set.Repair) != 2 || set.Speculation == nil || set.Blacklist == nil || set.FailJob == nil {
		t.Fatal("overrides missing")
	}
}

func TestReadPolicyRejects(t *testing.T) {
	for name, src := range map[string]string{
		"unknown_kind":        `{"kind": "zzz"}`,
		"unknown_field":       `{"kind": "lru", "bogus": 1}`,
		"bad_rule":            `{"kind": "lru", "replication": {"admit": {"rule": "nope"}}}`,
		"vanilla_with_rules":  `{"kind": "vanilla", "replication": {"admit": {"rule": "allow"}}}`,
		"scarlett_victim":     `{"kind": "scarlett", "replication": {"victim": {"rule": "allow"}}}`,
		"lru_aged":            `{"kind": "lru", "replication": {"aged": {"rule": "deny"}}}`,
		"lfu_aged":            `{"kind": "lfu", "replication": {"aged": {"rule": "deny"}}}`,
		"repair_no_key":       `{"kind": "lru", "repair": [{"weight": 1}]}`,
		"repair_zero_weight":  `{"kind": "lru", "repair": [{"key": "load"}]}`,
		"bad_speculation":     `{"kind": "lru", "speculation": {"rule": "threshold", "op": ">"}}`,
		"bad_blacklist":       `{"kind": "lru", "blacklist": {"rule": "ratewindow", "window": -1, "atLeast": 1}}`,
		"bad_failjob":         `{"kind": "lru", "failJob": {"rule": "probability", "p": 7}}`,
		"bad_probability_arm": `{"kind": "et", "replication": {"admit": {"rule": "epsilongreedy", "epsilon": 0.1, "window": 5, "arms": [{"rule": "probability", "p": 9}]}}}`,
	} {
		if _, err := ReadPolicy(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error for %s", name, src)
		}
	}
}

func TestPolicyRenderRoundTrip(t *testing.T) {
	spec, err := BuiltinPolicySpec("elephanttrap")
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Render()
	if err != nil {
		t.Fatal(err)
	}
	set, err := ReadPolicy(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("rendered spec must re-parse: %v\n%s", err, out)
	}
	out2, err := set.Spec.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatalf("render not a fixed point:\n%s\nvs\n%s", out, out2)
	}
}

// FuzzPolicyConfig checks the parse → render → parse fingerprint: any
// input the loader accepts must render to JSON that parses again and
// renders to the identical bytes (rendering is a fixed point), so config
// files survive canonicalization without semantic drift.
func FuzzPolicyConfig(f *testing.F) {
	f.Add(`{"kind": "lru"}`)
	f.Add(`{"kind": "elephanttrap", "p": 0.5, "threshold": 2, "budget": 0.1}`)
	f.Add(`{"kind": "et", "replication": {"admit": {"rule": "probability", "p": 0.7}}}`)
	f.Add(`{"kind": "scarlett", "epoch": 30, "accessesPerReplica": 2}`)
	f.Add(`{"kind": "lru", "speculation": {"rule": "all", "rules": [{"rule": "threshold", "key": "attempts", "op": "==", "value": 1}]}}`)
	f.Add(`{"kind": "lfu", "repair": [{"key": "load", "weight": -1}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		set, err := ReadPolicy(strings.NewReader(src))
		if err != nil {
			return // rejected input is fine; crashes and bad accepts are not
		}
		out, err := set.Spec.Render()
		if err != nil {
			t.Fatalf("accepted spec failed to render: %v", err)
		}
		set2, err := ReadPolicy(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("rendered spec failed to re-parse: %v\n%s", err, out)
		}
		out2, err := set2.Spec.Render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("fingerprint drift:\n%s\nvs\n%s", out, out2)
		}
	})
}

// TestCommittedConfigsAreCanonical pins the files under configs/: the
// five built-in arms are exactly Render(BuiltinPolicySpec), and the
// bandit arm loads, is canonical, and carries the ε-greedy admit gate.
func TestCommittedConfigsAreCanonical(t *testing.T) {
	dir := filepath.Join("..", "..", "configs")
	for _, name := range []string{"vanilla", "lru", "lfu", "elephanttrap", "scarlett"} {
		data, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := BuiltinPolicySpec(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.Render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("configs/%s.json is not Render(BuiltinPolicySpec(%q)):\n%s\nwant:\n%s", name, name, data, want)
		}
	}
	set, err := LoadPolicy(filepath.Join(dir, "bandit.json"))
	if err != nil {
		t.Fatal(err)
	}
	if set.Kind != "elephanttrap" || set.Replication == nil ||
		set.Replication.Admit == nil || set.Replication.Admit.Rule != "epsilongreedy" {
		t.Fatalf("bandit.json: %+v", set)
	}
	data, err := os.ReadFile(filepath.Join(dir, "bandit.json"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := set.Spec.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Errorf("configs/bandit.json is not canonical:\n%s\nwant:\n%s", data, out)
	}
}

func TestRuleSetJSONUsesPolicyTags(t *testing.T) {
	// Guard the JSON contract between config files and policy.RuleSpec.
	src := `{"kind": "et", "replication": {
	  "admit": {"rule": "any", "rules": [
	    {"rule": "threshold", "key": "used", "op": "<", "of": "budget", "factor": 0.5},
	    {"rule": "weightedscore", "terms": [{"key": "size", "weight": -1}], "min": -1e9}
	  ]},
	  "aged": {"rule": "threshold", "key": "count", "op": "<", "value": 2}
	}}`
	set, err := ReadPolicy(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	admit := set.Replication.Admit
	if admit.Rule != "any" || len(admit.Rules) != 2 || admit.Rules[0].Of != "budget" {
		t.Fatalf("parsed admit: %+v", admit)
	}
	if set.Replication.Aged.Value != 2 {
		t.Fatalf("parsed aged: %+v", set.Replication.Aged)
	}
	rules, err := set.Replication.CompileWith(stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if rules.Admit == nil || rules.Aged == nil || rules.Victim != nil {
		t.Fatalf("compiled: %+v", rules)
	}
	if !rules.Admit.Eval(policy.MapCtx{"used": 1, "budget": 100}) {
		t.Fatal("used < 0.5*budget should admit")
	}
}
