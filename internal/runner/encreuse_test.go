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
	"dare/internal/core"
	"dare/internal/mapreduce"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// secondCheckpointSHA256 is the SHA-256 of the second checkpoint file
// TestSectionEncodersReusedAcrossCheckpoints writes, as written by the
// build that seeded every stream eagerly and encoded every section into a
// fresh encoder. Moving one byte of it is a checkpoint format change.
const secondCheckpointSHA256 = "bbae9603632531ad786f2beabc5a889745aef1c6b1b92e7bbb1935c215a048c7"

// warmupJournalImageSHA256 is the SHA-256 of the img.dfs section of the
// checkpoint TestWarmupJournalImagePinned writes: a name node in the middle
// of a report-mode warm-up, so the section carries journal records, a
// rolled journal checkpoint, the warming set and the crash-time disk
// truth. Moving one byte of it is a checkpoint format change.
const warmupJournalImageSHA256 = "0442306fa33ae4cb7a3c4025b0433ce986ee3b2dd6e263bf16b31a360974d7ca"

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

// TestWarmupJournalImagePinned pins the name node's image while a
// report-mode recovery is still waiting for block reports, with journal
// checkpoints rolling: the fields no other pin reaches.
func TestWarmupJournalImagePinned(t *testing.T) {
	opts := Options{
		Profile:               config.CCT(),
		Workload:              truncate(workload.WL1(19), 35),
		Scheduler:             "fifo",
		Policy:                PolicyFor(core.ElephantTrapPolicy),
		Seed:                  19,
		MasterOutages:         []MasterOutage{{At: 2, Down: 3, Mode: "report"}},
		MasterCheckpointEvery: 4,
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(3)
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 160, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	for _, s := range f.Sections {
		if s.ID == sectionImgDFS {
			img = s.Data
		}
	}
	// The pin is only worth its bytes while the cut lands mid-warm-up with
	// a rolled journal checkpoint and pending records.
	c, err := mapreduce.NewCluster(config.CCT(), opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.NN.WalkState(snapshot.WalkDec(snapshot.NewDec(img))); err != nil {
		t.Fatal(err)
	}
	if !c.NN.Warming() || c.NN.JournalCheckpoints() == 0 || c.NN.JournalRecords() == 0 {
		t.Fatalf("cut is not mid-warm-up with journal state: warming %v, %d checkpoints, %d records",
			c.NN.Warming(), c.NN.JournalCheckpoints(), c.NN.JournalRecords())
	}
	if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != warmupJournalImageSHA256 {
		t.Errorf("img.dfs SHA-256 %x, want %s", sum, warmupJournalImageSHA256)
	}
}
