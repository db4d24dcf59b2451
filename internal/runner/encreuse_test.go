package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dare/internal/config"
	"dare/internal/workload"
)

// secondCheckpointSHA256 is the SHA-256 of the second checkpoint file
// TestSectionEncodersReusedAcrossCheckpoints writes, as written by the
// build that seeded every stream eagerly and encoded every section into a
// fresh encoder. Moving one byte of it is a checkpoint format change.
const secondCheckpointSHA256 = "bbae9603632531ad786f2beabc5a889745aef1c6b1b92e7bbb1935c215a048c7"

// TestSectionEncodersReusedAcrossCheckpoints: one run writes two
// checkpoints through the same reused section encoders. The second file
// must be byte-identical to the pinned one, and a state-mode resume of the
// first (kept as the .prev generation) must verify against it and finish
// exactly like the uninterrupted run — reuse never leaks bytes between
// sections or generations.
func TestSectionEncodersReusedAcrossCheckpoints(t *testing.T) {
	bandit, err := config.LoadPolicy("../../configs/bandit.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := func() Options {
		return Options{
			Profile:   config.EC2(),
			Workload:  truncate(workload.WL1(5), 30),
			Scheduler: "fair",
			PolicySet: bandit,
			Seed:      5,
			Churn:     &ChurnSpec{MTTF: 30, MTTR: 4},
		}
	}
	wantOut, wantLog := runBaseline(t, opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(2)
	var partial bytes.Buffer
	crashed := opts()
	crashed.EventLog = &partial
	if _, err := RunCheckpointed(crashed, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}

	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(second); hex.EncodeToString(sum[:]) != secondCheckpointSHA256 {
		t.Errorf("second checkpoint SHA-256 %x, want %s", sum, secondCheckpointSHA256)
	}

	first := path + ".prev"
	info, err := InspectCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	var suffix bytes.Buffer
	out, err := ResumeWithMode(first, &suffix, CheckpointSpec{}, ResumeState)
	if err != nil {
		t.Fatalf("state resume of the first checkpoint: %v", err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Errorf("resumed output diverges from uninterrupted run\nresumed: %s\nwant:    %s", got, wantOut)
	}
	full := append(append([]byte(nil), partial.Bytes()[:info.EventBytes]...), suffix.Bytes()...)
	if !bytes.Equal(full, wantLog) {
		t.Errorf("prefix+suffix event trace diverges from uninterrupted run (%d vs %d bytes)", len(full), len(wantLog))
	}
}
