package config

import (
	"fmt"
	"slices"
	"strings"

	"dare/internal/policy"
	"dare/internal/stats"
)

// PolicyRow is one built-in replication policy kind: its canonical name,
// the accepted CLI/config aliases, the README summary, its default
// scalars and its built-in replication rules.
type PolicyRow struct {
	Name    string
	Aliases []string
	Summary string
	// Defaults are the kind's default scalars; Name and Kind are unset.
	Defaults PolicySpec
	// rules builds the kind's built-in replication rule set; nil runs no
	// rule. See Rules.
	rules func(p float64, threshold int) policy.RuleSet
}

// defaultBudget is every replicating kind's storage budget: §IV calls
// 10-20% of a node's primary bytes reasonable.
const defaultBudget = 0.2

// etDefaults are the paper's headline ElephantTrap parameters (Fig. 7).
// They are also the -p/-threshold/-budget flag defaults, which apply to
// every kind, so Build fills a file's zero p, threshold and budget from
// them.
var etDefaults = PolicySpec{P: 0.3, Threshold: 1, Budget: defaultBudget}

// cacheRules is the greedy kinds' set: admit every non-local read, and
// never evict a block of the file being admitted.
func cacheRules(float64, int) policy.RuleSet {
	return policy.RuleSet{
		Admit:  &policy.RuleSpec{Rule: "allow"},
		Victim: &policy.RuleSpec{Rule: "threshold", Key: "same_file", Op: "==", Value: 0},
	}
}

// PolicyRows is the one table of built-in policy kinds, in display
// order. Every parse site (core, policy files, both CLIs) and the README
// table read it. The built-in rule sets are the declarative spellings of
// the decisions the simulator once hard-coded; compiled against the same
// seed streams they reproduce those decisions draw for draw, which keeps
// the goldens byte-identical.
var PolicyRows = []PolicyRow{
	{
		// Vanilla HDFS runs no rule: core's vanilla cache denies every
		// capture, and the runner wires no manager for it.
		Name:    "vanilla",
		Aliases: []string{"none", "off"},
		Summary: "Static HDFS replication; never replicates on read.",
	},
	{
		Name:     "lru",
		Aliases:  []string{"greedy"},
		Summary:  "Greedy admission with least-recently-used eviction.",
		Defaults: PolicySpec{Budget: defaultBudget},
		rules:    cacheRules,
	},
	{
		Name:     "lfu",
		Summary:  "Greedy admission with least-frequently-used eviction.",
		Defaults: PolicySpec{Budget: defaultBudget},
		rules:    cacheRules,
	},
	{
		// ElephantTrap samples admissions with probability p and ages a
		// candidate (halve its count, advance) instead of evicting it
		// once the candidate's access count has reached the threshold.
		Name:     "elephanttrap",
		Aliases:  []string{"et", "probabilistic"},
		Summary:  "Probabilistic sampling (p) with competitive aging (DARE §IV).",
		Defaults: etDefaults,
		rules: func(p float64, threshold int) policy.RuleSet {
			rs := cacheRules(p, threshold)
			rs.Admit = &policy.RuleSpec{Rule: "probability", P: p}
			rs.Aged = &policy.RuleSpec{Rule: "threshold", Key: "count", Op: "<", Value: float64(threshold)}
			return rs
		},
	},
	{
		// Scarlett's rounds are coarse by design (hours on a day-scale
		// trace); our replay compresses a day into tens of seconds, so a
		// 15 s epoch corresponds to a few-hour production round. Its one
		// rule is the epoch grow gate, accesses >= p, where p is the
		// accesses-per-replica quota: for integer tallies exactly the
		// historical int(acc/apr) >= 1 test.
		Name:     "scarlett",
		Aliases:  []string{"epoch"},
		Summary:  "Epoch-based rebalancing toward observed file popularity.",
		Defaults: PolicySpec{Budget: defaultBudget, Epoch: 15, AccessesPerReplica: 4, MaxExtraReplicas: 16},
		rules: func(apr float64, _ int) policy.RuleSet {
			return policy.RuleSet{Admit: &policy.RuleSpec{Rule: "threshold", Key: "accesses", Op: ">=", Value: apr}}
		},
	},
}

// Rules returns the kind's built-in replication rule set for the
// ElephantTrap tunables p and threshold (Scarlett reads p as its
// accesses-per-replica quota). The slots it fills are the rules the kind
// runs, and the only ones a policy may override (CheckRules).
func (r PolicyRow) Rules(p float64, threshold int) policy.RuleSet {
	if r.rules == nil {
		return policy.RuleSet{}
	}
	return r.rules(p, threshold)
}

// CheckRules rejects override rules the kind would never run, a slot
// its built-in set leaves empty, and rules that do not compile. It is
// the one rules check a policy file (Build) and core.Config.Validate
// both make.
func (r PolicyRow) CheckRules(rs *policy.RuleSet) error {
	if rs == nil {
		return nil
	}
	runs := r.Rules(0, 0)
	for _, slot := range [...]struct {
		name       string
		set, built *policy.RuleSpec
	}{{"admit", rs.Admit, runs.Admit}, {"victim", rs.Victim, runs.Victim}, {"aged", rs.Aged, runs.Aged}} {
		if slot.set != nil && slot.built == nil {
			return &PolicyError{Field: "rules", Err: fmt.Errorf("kind %s runs no %s rule", r.Name, slot.name)}
		}
	}
	if _, err := rs.CompileWith(stats.NewRNG(0)); err != nil {
		return &PolicyError{Field: "rules", Err: fmt.Errorf("compile policy rules: %w", err)}
	}
	return nil
}

// LookupPolicy resolves a user-facing spelling (canonical name or alias,
// case-insensitive) to its row. An unknown spelling is a *PolicyError on
// "kind".
func LookupPolicy(s string) (PolicyRow, error) {
	key := strings.ToLower(strings.TrimSpace(s))
	for _, row := range PolicyRows {
		if key == row.Name || slices.Contains(row.Aliases, key) {
			return row, nil
		}
	}
	return PolicyRow{}, &PolicyError{Field: "kind", Value: s, Err: ErrUnknownPolicy(s)}
}

// PolicyNameList renders the canonical names pipe-separated for help
// strings and error messages: "vanilla|lru|lfu|elephanttrap|scarlett".
func PolicyNameList() string {
	names := make([]string, len(PolicyRows))
	for i, row := range PolicyRows {
		names[i] = row.Name
	}
	return strings.Join(names, "|")
}

// ErrUnknownPolicy is the one error every policy-name parse site
// returns, so users see a single spelling of the complaint.
func ErrUnknownPolicy(s string) error {
	return fmt.Errorf("policy: unknown policy %q (want %s)", s, PolicyNameList())
}

// RenderPolicyNameTable renders the table as the markdown embedded in
// the README (regenerated, never hand-edited).
func RenderPolicyNameTable() string {
	var b strings.Builder
	b.WriteString("| Policy | Aliases | Behavior |\n")
	b.WriteString("|--------|---------|----------|\n")
	for _, row := range PolicyRows {
		aliases := strings.Join(row.Aliases, ", ")
		if aliases == "" {
			aliases = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", row.Name, aliases, row.Summary)
	}
	return b.String()
}
