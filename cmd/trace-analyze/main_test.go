package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare"
)

// eventLog writes the JSONL event trace of a short run to a file.
func eventLog(t *testing.T, path string) {
	t.Helper()
	wl := dare.WL1(7)
	wl.Jobs = wl.Jobs[:8]
	var log bytes.Buffer
	if _, err := dare.Run(dare.Options{
		Profile:   dare.CCT(),
		Workload:  wl,
		Scheduler: "fifo",
		Policy:    dare.PolicyFor(dare.ElephantTrap),
		Seed:      7,
		EventLog:  &log,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLI(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	eventLog(t, events)
	saved := filepath.Join(dir, "audit.csv")
	missing := filepath.Join(dir, "missing")
	synthetic := []string{"-files", "60", "-accesses", "3000", "-seed", "5"}
	for _, c := range []struct {
		name string
		args []string
		code int
		// stdout and stderr must contain every listed string.
		stdout, stderr []string
	}{
		{name: "synthetic log saved", args: append(synthetic, "-gen-out", saved),
			stdout: []string{"synthetic Yahoo!-shaped log: 60 files, 3000 accesses", "wrote " + saved,
				"--- Fig. 2: ", "--- Fig. 3: ", "--- Fig. 4: ", "--- Fig. 5: ", "--- Diurnal access profile"}},
		{name: "saved log read back", args: []string{"-in", saved},
			stdout: []string{"analyzing " + saved + ": ", "--- Fig. 2: "}},
		{name: "event trace summary", args: []string{"-events", events},
			stdout: []string{"--- cluster event trace: " + events, "locality ", "kind ", "task-launch ", "heartbeat "}},
		{name: "missing log", args: []string{"-in", missing + ".csv"}, code: 1,
			stderr: []string{"trace-analyze: ", "missing.csv"}},
		{name: "missing event trace", args: []string{"-events", missing + ".jsonl"}, code: 1,
			stderr: []string{"trace-analyze: ", "missing.jsonl"}},
		{name: "negative file population", args: []string{"-files", "-5"}, code: 1,
			stderr: []string{"trace-analyze: -files must be >= 0 (0 = the default), got -5"}},
		{name: "bad flag", args: []string{"-bogus"}, code: 2,
			stderr: []string{"flag provided but not defined: -bogus"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if c.code == 1 && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("a failure must print one line, stderr:\n%s", stderr.String())
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
