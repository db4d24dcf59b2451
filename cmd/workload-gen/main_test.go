package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLI(t *testing.T) {
	dir := t.TempDir()
	generated := filepath.Join(dir, "custom.csv")
	missing := filepath.Join(dir, "missing.csv")
	for _, c := range []struct {
		name string
		args []string
		code int
		// stdout and stderr must contain every listed string.
		stdout, stderr []string
	}{
		{name: "preset to stdout", args: []string{"-workload", "wl1", "-seed", "3"},
			stdout: []string{"#workload,", "file,file-000,"}},
		{name: "custom to a file", args: []string{"-jobs", "20", "-files", "8", "-o", generated, "-stats"},
			stderr: []string{"wrote " + generated + ": 8 files, 20 jobs, "}},
		{name: "validate what it generated", args: []string{"-validate", generated},
			stdout: []string{generated + `: OK — workload "custom", 8 files, 20 jobs, `}},
		{name: "validate a missing file", args: []string{"-validate", missing}, code: 1,
			stderr: []string{"workload-gen: ", "missing.csv"}},
		{name: "unknown preset", args: []string{"-workload", "wl3"}, code: 1,
			stderr: []string{`unknown workload preset "wl3"`}},
		{name: "negative file population", args: []string{"-files", "-2"}, code: 1,
			stderr: []string{"workload-gen: -files must be >= 0 (0 = the default), got -2"}},
		{name: "negative interarrival", args: []string{"-interarrival", "-1"}, code: 1,
			stderr: []string{"workload-gen: workload: job 0 has invalid timing (arrival -"}},
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
