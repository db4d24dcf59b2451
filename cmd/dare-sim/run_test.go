package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// bandit is the committed bandit config, relative to this package.
var bandit = filepath.Join("..", "..", "configs", "bandit.json")

// runSim runs the command in-process with the interrupt line raised or
// not and returns its exit status, stdout and stderr.
func runSim(interrupted bool, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	var interrupt atomic.Bool
	interrupt.Store(interrupted)
	code := run(args, &stdout, &stderr, &interrupt)
	return code, stdout.String(), stderr.String()
}

// outputs is what one run leaves behind: its stdout (or, for a resumed
// run, the metric block from "job locality" on) and the SHA-256 of its
// -events and -stream-report files ("" when the run wrote none).
type outputs struct{ stdout, events, report string }

// sinkArgs appends the sinks the byte-compares read: the event trace and,
// for a stream, the report, both in dir.
func sinkArgs(dir string, args ...string) []string {
	args = append(slices.Clip(args), "-events", filepath.Join(dir, "events.jsonl"))
	if slices.Contains(args, "-stream") {
		args = append(args, "-stream-report", filepath.Join(dir, "report.jsonl"))
	}
	return args
}

// simOutputs runs args, which must exit 0, and collects its outputs.
// metricsOnly cuts stdout to the metric block, which is all a resumed run
// shares with the uninterrupted one.
func simOutputs(t *testing.T, dir string, metricsOnly bool, args ...string) outputs {
	t.Helper()
	code, stdout, stderr := runSim(false, args...)
	if code != 0 {
		t.Fatalf("dare-sim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	if metricsOnly {
		i := strings.Index(stdout, "\njob locality")
		if i < 0 {
			t.Fatalf("dare-sim %s: no metric block in\n%s", strings.Join(args, " "), stdout)
		}
		stdout = stdout[i+1:]
	}
	return outputs{stdout: stdout, events: digest(t, filepath.Join(dir, "events.jsonl")), report: digest(t, filepath.Join(dir, "report.jsonl"))}
}

func digest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func sameOutputs(t *testing.T, what string, got, want outputs) {
	t.Helper()
	if got.stdout != want.stdout {
		t.Errorf("%s: stdout differs\ngot:\n%s\nwant:\n%s", what, got.stdout, want.stdout)
	}
	if got.events != want.events {
		t.Errorf("%s: -events trace differs", what)
	}
	if got.report != want.report {
		t.Errorf("%s: -stream-report stream differs", what)
	}
}

func copyFile(t *testing.T, dst, src string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDareSimByteIdentical is the determinism contract at the CLI: each
// row's commands must leave byte-identical stdout, -events trace and
// -stream-report stream.
//   - A row with only a runs it twice, same seed.
//   - A row with b runs two spellings of one run: a flag arm and its
//     config file.
//   - A resume row runs a uninterrupted, then crashes it right after its
//     second durable checkpoint (exit 137, as a SIGKILL would leave it)
//     and resumes the checkpoint in state mode. It then empties the event
//     log, restores the report the crash left, and resumes a copy of the
//     checkpoint again: the short sink falls back to a replay. Both
//     resumes must reproduce the uninterrupted run's metric block and
//     sinks.
func TestDareSimByteIdentical(t *testing.T) {
	scarlettFile := filepath.Join(t.TempDir(), "bare-scarlett.json")
	if err := os.WriteFile(scarlettFile, []byte(`{"kind":"scarlett"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	config := func(name string) string { return filepath.Join("..", "..", "configs", name+".json") }
	for _, c := range []struct {
		name   string
		a, b   []string
		resume bool
	}{
		{name: "event trace, wl2 fair churn", a: []string{"-profile", "cct", "-workload", "wl2", "-jobs", "60", "-policy", "et", "-scheduler", "fair", "-churn", "-check", "-seed", "11"}},
		{name: "chaos", a: []string{"-jobs", "60", "-chaos", "-check", "-seed", "11"}},
		{name: "master outage, report recovery", a: []string{"-jobs", "60", "-policy", "et", "-master-fail-at", "0.3", "-master-recovery", "report", "-check", "-seed", "17"}},
		{name: "scarlett epoch during a master outage", a: []string{"-jobs", "60", "-seed", "11", "-policy", "scarlett", "-master-fail-at", "0.5", "-master-down", "30", "-check"}},
		{name: "scarlett churn", a: []string{"-profile", "ec2", "-jobs", "200", "-seed", "5", "-policy", "scarlett", "-churn", "-check"}},
		{name: "bandit config", a: []string{"-jobs", "60", "-policy-file", bandit, "-check", "-seed", "11"}},
		{name: "10k-node coalesced heartbeats", a: []string{"-nodes", "10000", "-rack-size", "40", "-jobs", "30", "-policy", "vanilla", "-seed", "13"}},
		{name: "elephanttrap flag vs file",
			a: []string{"-jobs", "60", "-policy", "elephanttrap", "-seed", "11"},
			b: []string{"-jobs", "60", "-policy-file", config("elephanttrap"), "-seed", "11"}},
		{name: "lru flag vs file",
			a: []string{"-jobs", "60", "-scheduler", "fair", "-policy", "lru", "-seed", "11"},
			b: []string{"-jobs", "60", "-scheduler", "fair", "-policy-file", config("lru"), "-seed", "11"}},
		{name: "lfu flag vs file",
			a: []string{"-jobs", "60", "-scheduler", "fair", "-policy", "lfu", "-seed", "11"},
			b: []string{"-jobs", "60", "-scheduler", "fair", "-policy-file", config("lfu"), "-seed", "11"}},
		{name: "vanilla flag vs file",
			a: []string{"-jobs", "60", "-policy", "vanilla", "-seed", "11"},
			b: []string{"-jobs", "60", "-policy-file", config("vanilla"), "-seed", "11"}},
		{name: "scarlett flag vs file",
			a: []string{"-jobs", "120", "-policy", "scarlett", "-seed", "11"},
			b: []string{"-jobs", "120", "-policy-file", config("scarlett"), "-seed", "11"}},
		{name: `scarlett flag vs bare {"kind":"scarlett"}`,
			a: []string{"-jobs", "120", "-policy", "scarlett", "-seed", "11"},
			b: []string{"-jobs", "120", "-policy-file", scarlettFile, "-seed", "11"}},
		{name: "batch kill and resume", resume: true,
			a: []string{"-jobs", "120", "-scheduler", "fair", "-policy", "et", "-seed", "11"}},
		{name: "stream kill and resume", resume: true,
			a: []string{"-stream", "-stream-window", "5", "-stream-horizon", "40", "-seed", "9"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			want := simOutputs(t, dir, c.resume, sinkArgs(dir, c.a...)...)
			if !c.resume {
				b := c.b
				if b == nil {
					b = c.a
				}
				sameOutputs(t, "second run", simOutputs(t, dir, false, sinkArgs(dir, b...)...), want)
				return
			}
			ckpt := filepath.Join(dir, "run.ckpt")
			crash := append(sinkArgs(dir, c.a...), "-checkpoint", ckpt, "-checkpoint-every", "500", "-crash-after-checkpoints", "2")
			if code, _, stderr := runSim(false, crash...); code != 137 {
				t.Fatalf("crash run: exit %d, want 137\n%s", code, stderr)
			}
			replayCkpt, report, crashReport := filepath.Join(dir, "replay.ckpt"), filepath.Join(dir, "report.jsonl"), filepath.Join(dir, "crash-report.jsonl")
			copyFile(t, replayCkpt, ckpt)
			stream := slices.Contains(c.a, "-stream")
			if stream {
				copyFile(t, crashReport, report)
			}
			resume := func(ckpt string) []string {
				if stream {
					return sinkArgs(dir, "-resume", ckpt, "-stream")
				}
				return sinkArgs(dir, "-resume", ckpt)
			}
			sameOutputs(t, "state resume", simOutputs(t, dir, true, resume(ckpt)...), want)

			if err := os.Truncate(filepath.Join(dir, "events.jsonl"), 0); err != nil {
				t.Fatal(err)
			}
			if stream {
				copyFile(t, report, crashReport)
			}
			code, stdout, stderr := runSim(false, resume(replayCkpt)...)
			if code != 0 || !strings.Contains(stderr, "falling back to a replay resume") || !strings.Contains(stdout, "(replay mode)") {
				t.Fatalf("short sink: exit %d, want 0 and a replay resume\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			got := outputs{stdout: stdout[strings.Index(stdout, "job locality"):],
				events: digest(t, filepath.Join(dir, "events.jsonl")), report: digest(t, report)}
			sameOutputs(t, "replay resume", got, want)
		})
	}
}

// TestDareSimExit pins dare-sim's exit statuses and the line that
// explains each: usage errors (2) including a flag the mode does not
// read, run errors (1), an interrupt (130) and the crash hook (137).
func TestDareSimExit(t *testing.T) {
	dir := t.TempDir()
	batchCkpt, streamCkpt := filepath.Join(dir, "batch.ckpt"), filepath.Join(dir, "stream.ckpt")
	for _, args := range [][]string{
		{"-jobs", "60", "-checkpoint", batchCkpt, "-checkpoint-every", "300", "-crash-after-checkpoints", "1"},
		{"-stream", "-stream-window", "5", "-stream-horizon", "20", "-stream-report", "", "-checkpoint", streamCkpt, "-checkpoint-every", "300", "-crash-after-checkpoints", "1"},
	} {
		if code, _, stderr := runSim(false, args...); code != 137 || !strings.Contains(stderr, "simulated crash after checkpoint 1") {
			t.Fatalf("dare-sim %s: exit %d, want 137 and the crash line\n%s", strings.Join(args, " "), code, stderr)
		}
	}
	ckpt, twoProfiles := filepath.Join(dir, "interrupted.ckpt"), filepath.Join(dir, "two-profiles.json")
	profile := `{"name":"tiny","slaves":2,"mapSlotsPerNode":1,"blockSizeMB":128,"replicationFactor":1,` +
		`"diskBW":{"type":"constant","value":100},"netBW":{"type":"constant","value":100},"rtt":{"type":"constant","value":0.0001}}`
	if err := os.WriteFile(twoProfiles, []byte(profile+`{"slaves":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		args        []string
		interrupted bool
		code        int
		stdout      string // a substring; "" checks nothing
		stderr      string
	}{
		{name: "help", args: []string{"-h"}, code: 0, stderr: "Usage of dare-sim"},
		{name: "unknown flag", args: []string{"-bogus"}, code: 2, stderr: "flag provided but not defined: -bogus"},
		{name: "positional argument", args: []string{"-jobs", "5", "wl2"}, code: 2, stderr: `unexpected argument "wl2"`},
		{name: "batch reads no stream flag", args: []string{"-jobs", "5", "-stream-window", "5", "-stream-report", "r.jsonl"},
			code: 2, stderr: "batch mode does not read -stream-report, -stream-window"},
		{name: "-seeds reads no per-run output flag", args: []string{"-seeds", "2", "-jobs", "10", "-v", "-csv", "x.csv", "-events", "e.jsonl"},
			code: 2, stderr: "-seeds mode does not read -csv, -events, -v"},
		{name: "-stream reads no trace or fault flag",
			args: []string{"-stream", "-stream-window", "5", "-stream-horizon", "20", "-stream-report", "", "-seed", "9", "-churn", "-chaos", "-fail", "3", "-master-fail-at", "0.3", "-jobs", "5", "-no-repair"},
			code: 2, stderr: "-stream mode does not read -chaos, -churn, -fail, -jobs, -master-fail-at, -no-repair"},
		{name: "-resume reads nothing that shapes the run", args: []string{"-resume", batchCkpt, "-profile", "ec2", "-policy", "lru", "-seed", "3"},
			code: 2, stderr: "-resume mode does not read -policy, -profile, -seed"},
		{name: "-resume -stream reads no stream shape", args: []string{"-resume", streamCkpt, "-stream", "-stream-window", "10"},
			code: 2, stderr: "-resume -stream mode does not read -stream-window"},
		{name: "crash hook without a checkpoint", args: []string{"-jobs", "5", "-crash-after-checkpoints", "1"},
			code: 2, stderr: "-crash-after-checkpoints needs -checkpoint or -resume"},
		{name: "negative -nodes", args: []string{"-nodes", "-3"}, code: 2, stderr: "-nodes must be >= 0, got -3"},
		{name: "negative -rack-size", args: []string{"-rack-size", "-1"}, code: 2, stderr: "-rack-size must be >= 0, got -1"},
		{name: "negative -jobs", args: []string{"-jobs", "-4"}, code: 2, stderr: "-jobs must be >= 0, got -4"},
		{name: "negative -fail", args: []string{"-jobs", "5", "-fail", "-2"}, code: 2, stderr: "-fail must be >= 0, got -2"},
		{name: "negative -fair-skips is valid", args: []string{"-jobs", "5", "-scheduler", "fair", "-fair-skips", "-5"}, code: 0, stdout: "fair"},
		{name: "unknown workload", args: []string{"-workload", "wl3"}, code: 1, stderr: `unknown workload preset "wl3"`},
		{name: "unknown profile", args: []string{"-profile", "bogus"}, code: 1, stderr: `unknown profile "bogus"`},
		{name: "profile file with a second object", args: []string{"-profile-file", twoProfiles, "-jobs", "5"},
			code: 1, stderr: "trailing data after the JSON value"},
		{name: "negative fault time", args: []string{"-jobs", "5", "-fail", "1", "-fail-at", "-1"},
			code: 1, stderr: "failure scheduled at invalid time"},
		{name: "NaN fault time", args: []string{"-jobs", "5", "-fail", "1", "-fail-at", "NaN"},
			code: 1, stderr: "failure scheduled at invalid time NaN"},
		{name: "NaN master downtime", args: []string{"-jobs", "5", "-master-fail-at", "0.5", "-master-down", "NaN"},
			code: 1, stderr: "master outage downtime NaN must be > 0"},
		{name: "NaN stream window", args: []string{"-stream", "-stream-window", "NaN", "-stream-horizon", "10", "-stream-report", ""},
			code: 1, stderr: "stream Window must be positive and finite, got NaN"},
		{name: "NaN stream horizon", args: []string{"-stream", "-stream-horizon", "NaN", "-stream-report", ""},
			code: 1, stderr: "stream Horizon must be >= 0, got NaN"},
		{name: "negative stream horizon", args: []string{"-stream", "-stream-horizon", "-5", "-stream-report", ""},
			code: 1, stderr: "stream Horizon must be >= 0, got -5"},
		{name: "batch checkpoint resumed with -stream", args: []string{"-resume", batchCkpt, "-stream", "-stream-report", ""},
			code: 1, stderr: "holds a batch run"},
		{name: "stream checkpoint resumed without -stream", args: []string{"-resume", streamCkpt},
			code: 1, stderr: "holds a streaming run"},
		// Fault-interplay defect 1: a flap rejoin due while the master is
		// down boots the node without registering it. This row flips to
		// exit 0 when that is fixed.
		{name: "-check violation", args: []string{"-profile", "ec2", "-churn", "-chaos", "-chaos-master", "1", "-policy-file", bandit, "-jobs", "80", "-seed", "5", "-master-fail-at", "0.3", "-check"},
			code: 1, stderr: "invariant violated at t=5.028"},
		{name: "interrupt before the start", args: []string{"-jobs", "20"}, interrupted: true,
			code: 130, stdout: "interrupted: stopped cleanly at an event boundary"},
		// This row writes ckpt, and the two after it resume from it.
		{name: "interrupt before the start, checkpointed", args: []string{"-jobs", "20", "-checkpoint", ckpt}, interrupted: true,
			code: 130, stdout: "interrupted: final checkpoint written to " + ckpt + "; continue with -resume " + ckpt},
		{name: "interrupted resume", args: []string{"-resume", ckpt}, interrupted: true,
			code: 130, stdout: "interrupted: final checkpoint written to " + ckpt},
		{name: "resume of the interrupt's checkpoint", args: []string{"-resume", ckpt},
			code: 0, stdout: "resumed       " + ckpt + " (state mode)"},
	} {
		code, stdout, stderr := runSim(c.interrupted, c.args...)
		if code != c.code || !strings.Contains(stdout, c.stdout) || !strings.Contains(stderr, c.stderr) {
			t.Errorf("%s: dare-sim %s: exit %d, want %d with %q on stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s",
				c.name, strings.Join(c.args, " "), code, c.code, c.stdout, c.stderr, stdout, stderr)
		}
	}
}
