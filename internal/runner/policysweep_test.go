package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
)

// TestPolicyFileMatchesBuiltinFlag pins the central -policy-file
// guarantee: running a built-in arm through the config-file path, or a
// bare {"kind": X} file, is exactly the run the -policy flag path
// produces — same summary, same policy counters, same label. 120 jobs
// span several Scarlett epochs, so a file arm that ran a different epoch
// would show.
func TestPolicyFileMatchesBuiltinFlag(t *testing.T) {
	flags := core.DefaultConfig() // dare-sim's -p/-threshold/-budget defaults
	for _, kind := range []core.PolicyKind{
		core.NonePolicy, core.GreedyLRUPolicy, core.GreedyLFUPolicy,
		core.ElephantTrapPolicy, core.ScarlettPolicy,
	} {
		for _, jobs := range []int{25, 120} {
			name := fmt.Sprintf("%s/%d jobs", kind, jobs)
			wl, err := WorkloadByName("wl1", 7)
			if err != nil {
				t.Fatal(err)
			}
			wl = truncate(wl, jobs)
			base := Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: 7}

			// The flag-path config, resolved as the dare-sim CLI resolves it
			// (delays stay zero and default to the heartbeat interval inside
			// Run, on every path).
			flagOpts := base
			if flagOpts.Policy, err = FlagPolicy(kind.String(), flags.P, flags.Threshold, flags.BudgetFraction); err != nil {
				t.Fatal(err)
			}
			want, err := Run(flagOpts)
			if err != nil {
				t.Fatalf("%s flag run: %v", name, err)
			}

			builtin, err := config.BuiltinPolicy(kind.String())
			if err != nil {
				t.Fatal(err)
			}
			bare, err := config.PolicySpec{Kind: kind.String()}.Build()
			if err != nil {
				t.Fatal(err)
			}
			for arm, set := range map[string]*config.PolicySet{"builtin": builtin, "bare": bare} {
				fileOpts := base
				fileOpts.PolicySet = set
				got, err := Run(fileOpts)
				if err != nil {
					t.Fatalf("%s %s file run: %v", name, arm, err)
				}

				if got.Summary != want.Summary {
					t.Errorf("%s %s: summary diverged\nflag: %+v\nfile: %+v", name, arm, want.Summary, got.Summary)
				}
				if got.PolicyStats != want.PolicyStats {
					t.Errorf("%s %s: policy stats diverged: flag %+v file %+v", name, arm, want.PolicyStats, got.PolicyStats)
				}
				if got.PolicyName != want.PolicyName {
					t.Errorf("%s %s: policy name %q vs %q", name, arm, got.PolicyName, want.PolicyName)
				}
				if got.ExtraNetworkBytes != want.ExtraNetworkBytes {
					t.Errorf("%s %s: extra network bytes %d vs %d", name, arm, got.ExtraNetworkBytes, want.ExtraNetworkBytes)
				}
			}
		}
	}
}

// TestPolicyFileOverridesApply proves a config arm actually changes
// behavior (the overrides are not dead wiring): an always-admit LRU arm
// must create at least as many replicas as one that never admits.
func TestPolicyFileOverridesApply(t *testing.T) {
	run := func(admit string) *Output {
		t.Helper()
		set, err := config.ReadPolicy(strings.NewReader(
			`{"kind": "lru", "replication": {"admit": {"rule": "` + admit + `"}}}`))
		if err != nil {
			t.Fatal(err)
		}
		wl, err := WorkloadByName("wl1", 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(Options{Profile: config.CCT(), Workload: truncate(wl, 25),
			Scheduler: "fifo", PolicySet: set, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	allow, deny := run("allow"), run("deny")
	if deny.PolicyStats.ReplicasCreated != 0 {
		t.Errorf("deny-admit arm created %d replicas", deny.PolicyStats.ReplicasCreated)
	}
	if allow.PolicyStats.ReplicasCreated == 0 {
		t.Error("allow-admit arm created no replicas; admit override is not wired")
	}
}

const banditSpec = `{
	  "name": "bandit",
	  "kind": "elephanttrap",
	  "replication": {"admit": {"rule": "epsilongreedy", "epsilon": 0.1, "window": 30,
	    "rewardKey": "local",
	    "arms": [
	      {"rule": "probability", "p": 0.1},
	      {"rule": "probability", "p": 0.3},
	      {"rule": "probability", "p": 1}
	    ]}}
	}`

// TestPolicySweepWithBanditArm runs the ε-greedy bandit arm end to end in
// a sweep next to the built-ins — the config-only experiment the policy
// layer exists for: an adaptive replication-factor arm with zero edits to
// internal/core.
func TestPolicySweepWithBanditArm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bandit.json")
	if err := os.WriteFile(path, []byte(banditSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	p := Params{Jobs: 20, Seed: 11, PolicyFiles: []string{path}}
	tbl := mustTable(t, policySweep, p)
	if len(tbl.Rows) != 6 {
		t.Fatalf("want 5 built-ins + bandit, got %d rows", len(tbl.Rows))
	}
	row, ok := rowsBy(t, tbl, "arm")["bandit"]
	if !ok {
		t.Fatalf("bandit arm missing from\n%s", tbl.Render())
	}
	if num(t, tbl, row, "replicas") == 0 {
		t.Error("bandit arm never replicated; the ε-greedy admit gate is not live")
	}
	// Determinism: the sweep is a pure function of (jobs, seed, arms).
	out := tbl.Render()
	if again := mustTable(t, policySweep, p).Render(); again != out {
		t.Error("policy sweep not deterministic across replays")
	}
	for _, arm := range []string{"vanilla", "lru", "lfu", "elephanttrap", "scarlett", "bandit"} {
		if !strings.Contains(out, arm) {
			t.Errorf("rendered sweep missing arm %s:\n%s", arm, out)
		}
	}
}
