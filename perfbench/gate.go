package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"

	"dare/internal/runner"
)

// defaultSeed is the workload seed the committed digests were recorded
// at. Any other seed is checked for self-consistency only.
const defaultSeed = 1

// committed holds, per workload, the digest of the Output JSON (for
// paper-grid, the digest of its runs' digests in arm order) and, for
// fault-durable, of the JSONL event trace, at defaultSeed.
//
//go:embed digests.json
var committedJSON []byte

type digestPair struct {
	Output string `json:"output"`
	Events string `json:"events,omitempty"`
}

func committedDigests() (map[string]digestPair, error) {
	var d map[string]digestPair
	if err := json.Unmarshal(committedJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// traceSink is the in-memory event-trace sink: it keeps the SHA-256 of
// the bytes written from offset skip on, and nothing else, so memory use
// does not grow with the trace.
type traceSink struct {
	h    hash.Hash
	skip int64 // bytes not yet skipped
}

func newTraceSink(skip int64) *traceSink { return &traceSink{h: sha256.New(), skip: skip} }

func (s *traceSink) Write(p []byte) (int, error) {
	n := len(p)
	drop := min(s.skip, int64(n))
	s.skip -= drop
	s.h.Write(p[drop:])
	return n, nil
}

func (s *traceSink) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

func outputDigest(out *runner.Output) (string, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encoding output: %w", err)
	}
	return digest(b), nil
}

// gate counts the operations a run attempts (simulation runs, checkpoint
// writes, restores) and those that failed: returned an error, or produced
// an output whose digest differs from the reference.
type gate struct {
	attempted, failed int
}

// check records one operation; what names it in the failure message.
func (g *gate) check(what string, err error) bool {
	g.attempted++
	if err != nil {
		g.failed++
		if g.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
		return false
	}
	return true
}

// sameDigest reports a mismatch between a produced digest and the
// reference as an error.
func sameDigest(kind, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s, want %s", kind, got, want)
	}
	return nil
}

// checkOutput records one simulation run: err is the run's error, and a
// successful run's Output must hash to want.
func (g *gate) checkOutput(what string, out *runner.Output, err error, want string) bool {
	if err == nil {
		var got string
		if got, err = outputDigest(out); err == nil {
			err = sameDigest("output", got, want)
		}
	}
	return g.check(what, err)
}
