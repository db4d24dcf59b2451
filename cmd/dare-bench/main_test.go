package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare"
)

// TestExperimentRegistry verifies the CLI wiring: every registered
// experiment has a unique id, a title and a Run, and every paper artifact
// is present.
func TestExperimentRegistry(t *testing.T) {
	exps := dare.Experiments()
	if len(exps) < 20 {
		t.Fatalf("registry shrank to %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{
		"table1", "table2", "table3",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11",
		"ablation-writes", "ablation-maptime",
		"adaptation", "availability", "speculation", "eviction",
		"audit-replay", "output-bound", "delay-sweep", "balance",
	} {
		if !seen[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

// TestEveryExperimentRunsTiny byte-compares every experiment's stdout at
// -jobs 25 -seed 7 against its golden file in testdata. The goldens were
// written before the experiments moved onto the shared table registry
// and are never regenerated by the test.
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	exps := dare.Experiments()
	if len(goldens) != len(exps) {
		t.Errorf("%d golden files for %d experiments", len(goldens), len(exps))
	}
	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-exp", e.ID, "-jobs", "25", "-seed", "7"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", e.ID, got, want)
			}
		})
	}
}

// TestDareBenchByteIdentical is the determinism contract at the CLI: the
// fault studies, with the invariant checkers on, print byte-identical
// stdout when run twice with the same seed.
func TestDareBenchByteIdentical(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "churn", "-jobs", "150", "-seed", "7", "-check"},
		{"-exp", "chaos", "-jobs", "150", "-seed", "5", "-chaos-events", "40", "-check"},
		{"-exp", "failover", "-jobs", "150", "-seed", "9", "-check"},
	} {
		t.Run(args[1], func(t *testing.T) {
			var runs [2]string
			for i := range runs {
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("dare-bench %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
				}
				runs[i] = stdout.String()
			}
			if !strings.HasPrefix(runs[0], "=== "+args[1]+" — ") {
				t.Fatalf("dare-bench %s: no %s table in\n%s", strings.Join(args, " "), args[1], runs[0])
			}
			if runs[0] != runs[1] {
				t.Fatalf("dare-bench %s: second run differs\nfirst:\n%s\nsecond:\n%s", strings.Join(args, " "), runs[0], runs[1])
			}
		})
	}
}

func TestCLI(t *testing.T) {
	missing, twoObjects := filepath.Join(t.TempDir(), "missing.json"), filepath.Join(t.TempDir(), "two.json")
	if err := os.WriteFile(twoObjects, []byte(`{"kind":"lru"}{"kind":"scarlett"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
		// stdout and stderr must contain every listed string.
		stdout, stderr []string
	}{
		{name: "list prints every id", args: []string{"-list"}, stdout: ids()},
		{name: "fig8 expands to its panels", args: []string{"-exp", "fig8", "-jobs", "5", "-seed", "3"},
			stdout: []string{"=== fig8a — ", "=== fig8b — "}},
		{name: "unknown experiment", args: []string{"-exp", "fig12"}, code: 1,
			stderr: append([]string{`unknown experiment "fig12"`}, ids()...)},
		{name: "checkpoint is retired", args: []string{"-exp", "checkpoint"}, code: 1,
			stderr: append([]string{`unknown experiment "checkpoint"`}, ids()...)},
		{name: "missing policy file", args: []string{"-exp", "policy", "-jobs", "5", "-policy-file", missing}, code: 1,
			stderr: []string{"dare-bench: policy: ", "missing.json"}},
		{name: "policy file with a second object", args: []string{"-exp", "policy", "-jobs", "5", "-policy-file", twoObjects}, code: 1,
			stderr: []string{"dare-bench: policy: ", "two.json", "trailing data after the JSON value"}},
		{name: "events appends bus counts", args: []string{"-exp", "events", "-jobs", "10", "-events"},
			stdout: []string{"=== events — ", "\nbus events: "}},
		{name: "unknown flag (the retired -json)", args: []string{"-json"}, code: 2,
			stderr: []string{"flag provided but not defined: -json"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			for _, w := range c.stdout {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout.String())
				}
			}
			for _, w := range c.stderr {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("stderr lacks %q:\n%s", w, stderr.String())
				}
			}
		})
	}
}

// ids lists every registered experiment id.
func ids() []string {
	var out []string
	for _, e := range dare.Experiments() {
		out = append(out, e.ID)
	}
	return out
}
