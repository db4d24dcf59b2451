package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// stateScenarios extends the crash-resume scenario set with a failover
// run (master outages exercise the journal/blame state and the outage
// retry tags) — every family a state image must cover.
func stateScenarios() []durableScenario {
	return append(durableScenarios(), durableScenario{
		name: "failover-et-fifo",
		opts: func() Options {
			return Options{
				Profile:   config.CCT(),
				Workload:  truncate(workload.WL1(19), 35),
				Scheduler: "fifo",
				Policy:    PolicyFor(core.ElephantTrapPolicy),
				Seed:      19,
				MasterOutages: []MasterOutage{
					{At: 2, Down: 3, Mode: "journal"},
					{At: 9, Down: 2, Mode: "report"},
				},
			}
		},
	})
}

// crashForState runs opts checkpointed until the simulated crash at the
// second checkpoint and returns the dead process's partial event log; the
// checkpoint is left at path.
func crashForState(t *testing.T, opts Options, path string) []byte {
	t.Helper()
	hook, crashErr := crashAfter(2)
	var partial bytes.Buffer
	opts.EventLog = &partial
	_, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
	if !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	return partial.Bytes()
}

// TestStateResumeDifferential is the tentpole contract for O(state)
// restore: a run killed at a checkpoint and state-resumed produces the
// byte-identical Output as the uninterrupted run, and the dead process's
// log prefix plus the resumed suffix reassembles the identical event
// trace — across plain, churn, chaos, and failover scenarios.
func TestStateResumeDifferential(t *testing.T) {
	for _, sc := range stateScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			wantOut, wantLog := runBaseline(t, sc.opts())

			path := filepath.Join(t.TempDir(), "run.ckpt")
			partial := crashForState(t, sc.opts(), path)
			info, err := InspectCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if !info.StateResumable || info.Stream {
				t.Fatalf("InspectCheckpoint: got %+v, want batch state-resumable", info)
			}
			if int64(len(partial)) < info.EventBytes {
				t.Fatalf("dead process's log holds %d bytes, cursor recorded %d", len(partial), info.EventBytes)
			}

			var suffix bytes.Buffer
			out, err := ResumeWithMode(path, &suffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
			if err != nil {
				t.Fatal(err)
			}
			if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
				t.Errorf("state-resumed output diverges from uninterrupted run\nresumed: %s\nwant:    %s", got, wantOut)
			}
			full := append(append([]byte(nil), partial[:info.EventBytes]...), suffix.Bytes()...)
			if !bytes.Equal(full, wantLog) {
				t.Errorf("prefix+suffix event trace diverges from uninterrupted run (%d vs %d bytes)", len(full), len(wantLog))
			}
		})
	}
}

// TestStateResumeMatchesReplayResume: the two restore strategies are
// interchangeable — resuming the same checkpoint in both modes yields the
// identical Output (the replay is the oracle the state image is judged
// against).
func TestStateResumeMatchesReplayResume(t *testing.T) {
	sc := durableScenarios()[1] // churn: RNG-heavy state
	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, sc.opts(), path)

	var replayLog bytes.Buffer
	replayOut, err := ResumeWithMode(path, &replayLog, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
	if err != nil {
		t.Fatal(err)
	}
	var stateSuffix bytes.Buffer
	stateOut, err := ResumeWithMode(path, &stateSuffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outputJSON(t, stateOut), outputJSON(t, replayOut); !bytes.Equal(got, want) {
		t.Errorf("state and replay resumes disagree\nstate:  %s\nreplay: %s", got, want)
	}
	// The replay log is the full trace; the state log is its suffix.
	if !bytes.HasSuffix(replayLog.Bytes(), stateSuffix.Bytes()) {
		t.Error("state-resume suffix is not a suffix of the replay-resume trace")
	}
}

// TestStateResumeStreamDifferential: the service-mode contract — killed
// and state-resumed, the spliced event trace AND report stream are
// byte-identical to the uninterrupted run's.
func TestStateResumeStreamDifferential(t *testing.T) {
	wantOut, wantLog, wantReport := runStreamBaseline(t)

	path := filepath.Join(t.TempDir(), "svc.ckpt")
	hook, crashErr := crashAfter(2)
	opts := streamOpts()
	var partialLog, partialReport bytes.Buffer
	opts.EventLog = &partialLog
	_, err := RunStream(opts, streamSpec(), &partialReport, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
	if !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.StateResumable || !info.Stream {
		t.Fatalf("InspectCheckpoint: got %+v, want stream state-resumable", info)
	}

	var logSuffix, reportSuffix bytes.Buffer
	out, err := ResumeStreamWithMode(path, &logSuffix, &reportSuffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Errorf("state-resumed stream output diverges\nresumed: %s\nwant:    %s", got, wantOut)
	}
	fullLog := append(append([]byte(nil), partialLog.Bytes()[:info.EventBytes]...), logSuffix.Bytes()...)
	if !bytes.Equal(fullLog, wantLog) {
		t.Errorf("spliced stream event trace diverges (%d vs %d bytes)", len(fullLog), len(wantLog))
	}
	fullReport := append(append([]byte(nil), partialReport.Bytes()[:info.ReportBytes]...), reportSuffix.Bytes()...)
	if !bytes.Equal(fullReport, wantReport) {
		t.Errorf("spliced stream report diverges (%d vs %d bytes)\nspliced: %s\nwant:    %s",
			len(fullReport), len(wantReport), fullReport, wantReport)
	}
}

// rewriteCheckpoint writes f to a fresh path under dir with mutate
// applied to a copy of its sections, leaving no .prev generation to fall
// back to.
func rewriteCheckpoint(t *testing.T, f *snapshot.File, dir, name string, mutate func([]snapshot.Section) []snapshot.Section) string {
	t.Helper()
	secs := make([]snapshot.Section, len(f.Sections))
	for i, s := range f.Sections {
		secs[i] = snapshot.Section{ID: s.ID, Data: append([]byte(nil), s.Data...)}
	}
	path := filepath.Join(dir, name)
	if err := snapshot.WriteFile(path, &snapshot.File{Sections: mutate(secs)}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResumeRejectsMissingImageSection: the state image is mandatory. A
// checkpoint missing any img.* section is a format error in both resume
// modes — never a silent downgrade — for batch and stream checkpoints.
func TestResumeRejectsMissingImageSection(t *testing.T) {
	dir := t.TempDir()
	batch := filepath.Join(dir, "batch.ckpt")
	crashForState(t, durableScenarios()[0].opts(), batch)
	svc := filepath.Join(dir, "svc.ckpt")
	hook, crashErr := crashAfter(2)
	if _, err := RunStream(streamOpts(), streamSpec(), nil, CheckpointSpec{Path: svc, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}

	for _, stream := range []bool{false, true} {
		src := batch
		if stream {
			src = svc
		}
		f, _, err := snapshot.LoadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range imageSectionIDs(stream) {
			path := rewriteCheckpoint(t, f, dir, fmt.Sprintf("no-%s-%v.ckpt", id, stream), func(secs []snapshot.Section) []snapshot.Section {
				kept := secs[:0]
				for _, s := range secs {
					if s.ID != id {
						kept = append(kept, s)
					}
				}
				return kept
			})
			for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
				ck := CheckpointSpec{Path: path, Every: 300}
				if stream {
					_, err = ResumeStreamWithMode(path, &bytes.Buffer{}, &bytes.Buffer{}, ck, mode)
				} else {
					_, err = ResumeWithMode(path, &bytes.Buffer{}, ck, mode)
				}
				if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), id) {
					t.Errorf("%s without %s, %s mode: got %v, want ErrFormat naming the section", filepath.Base(src), id, mode, err)
				}
			}
		}
	}
}

// TestResumeRejectsRetiredSpecKeys: the spec section decodes strictly. A
// checkpoint whose spec carries a key this build does not know — here each
// of the retired equivalence-testing knobs — is a format error naming the
// key in both resume modes, for batch and stream checkpoints, instead of
// resuming on a different code path and failing late.
func TestResumeRejectsRetiredSpecKeys(t *testing.T) {
	dir := t.TempDir()
	batch := filepath.Join(dir, "batch.ckpt")
	crashForState(t, durableScenarios()[0].opts(), batch)
	svc := filepath.Join(dir, "svc.ckpt")
	hook, crashErr := crashAfter(2)
	if _, err := RunStream(streamOpts(), streamSpec(), nil, CheckpointSpec{Path: svc, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	retired := map[string]any{"linearScan": true, "heapQueue": true, "perNodeHeartbeats": true, "hbCohortSize": 4}
	for _, stream := range []bool{false, true} {
		src := batch
		if stream {
			src = svc
		}
		f, _, err := snapshot.LoadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for key, val := range retired {
			path := rewriteCheckpoint(t, f, dir, fmt.Sprintf("%s-%v.ckpt", key, stream), func(secs []snapshot.Section) []snapshot.Section {
				for i, s := range secs {
					if s.ID != sectionSpec {
						continue
					}
					var spec map[string]any
					if err := json.Unmarshal(s.Data, &spec); err != nil {
						t.Fatal(err)
					}
					spec[key] = val
					data, err := json.Marshal(spec)
					if err != nil {
						t.Fatal(err)
					}
					secs[i].Data = data
				}
				return secs
			})
			for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
				ck := CheckpointSpec{Path: path, Every: 300}
				if stream {
					_, err = ResumeStreamWithMode(path, &bytes.Buffer{}, &bytes.Buffer{}, ck, mode)
				} else {
					_, err = ResumeWithMode(path, &bytes.Buffer{}, ck, mode)
				}
				if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), key) {
					t.Errorf("%s with %q, %s mode: got %v, want ErrFormat naming the key", filepath.Base(src), key, mode, err)
				}
			}
		}
	}
}

// TestReplayResumeNamesTamperedImageSection: replay mode verifies the cut
// by re-encoding the replayed state and byte-comparing every stored image
// section. One flipped byte, rewritten under a valid CRC, is a
// DivergenceError that names that section and no other.
func TestReplayResumeNamesTamperedImageSection(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "run.ckpt")
	crashForState(t, durableScenarios()[0].opts(), base)
	f, _, err := snapshot.LoadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	ids := imageSectionIDs(false)
	for _, id := range ids {
		path := rewriteCheckpoint(t, f, dir, "flip-"+id+".ckpt", func(secs []snapshot.Section) []snapshot.Section {
			for _, s := range secs {
				if s.ID == id {
					s.Data[len(s.Data)/2] ^= 0x5A
				}
			}
			return secs
		})
		_, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
		var div *DivergenceError
		if !errors.As(err, &div) {
			t.Errorf("flipped byte in %s: got %v, want DivergenceError", id, err)
			continue
		}
		for _, other := range ids {
			if named := strings.Contains(err.Error(), fmt.Sprintf("%q", other)); named != (other == id) {
				t.Errorf("flipped byte in %s: error names %s = %v: %v", id, other, named, err)
			}
		}
	}
}

// TestResumeRejectsVersion1: a version-1 checkpoint (hashed state table
// beside the image) fails with ErrVersion in both resume modes.
func TestResumeRejectsVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, durableScenarios()[0].opts(), path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[len(snapshot.Magic):], 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix)
	for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
		_, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, mode)
		var ve *snapshot.VersionError
		if !errors.Is(err, snapshot.ErrVersion) || !errors.As(err, &ve) || ve.Got != 1 {
			t.Errorf("%s mode: got %v, want VersionError{Got: 1}", mode, err)
		}
	}
}

// TestStateResumeTornImageFallsBack: a torn primary (SIGKILL mid-write)
// makes LoadFile fall back to the .prev generation, and state mode rides
// along — the previous generation's image restores the run.
func TestStateResumeTornImageFallsBack(t *testing.T) {
	sc := durableScenarios()[0]
	wantOut, _ := runBaseline(t, sc.opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(3)
	opts := sc.opts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Error("state resume from .prev generation diverges from uninterrupted run")
	}
}

// TestStateImageDetectsCorruption: flipping bytes inside an image section
// must surface as a typed error (decode failure or DivergenceError), never
// a silently wrong run. Complements FuzzStateRestore with a deterministic
// regression case.
func TestStateImageDetectsCorruption(t *testing.T) {
	sc := durableScenarios()[0]
	wantOut, _ := runBaseline(t, sc.opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, sc.opts(), path)
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections {
		if s.ID != sectionImgTracker {
			continue
		}
		for i := range s.Data {
			s.Data[i] ^= 0xA5
		}
	}
	if err := snapshot.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix)

	out, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err == nil {
		if bytes.Equal(outputJSON(t, out), wantOut) {
			t.Skip("corruption happened to decode to the identical state")
		}
		t.Fatal("corrupted state image resumed without error to a different run")
	}
}

// FuzzStateRestore hammers the state-decode path with corrupted image
// sections, rewritten under valid CRCs: any mutation must fail with an
// error or restore a state that re-encodes to the mutated image — never
// panic, never allocate without bound.
func FuzzStateRestore(f *testing.F) {
	opts := Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL1(7), 12),
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      7,
	}
	dir := f.TempDir()
	base := filepath.Join(dir, "fuzz.ckpt")
	hook, crashErr := crashAfter(1)
	// No event log: the checkpoint then records EventBytes 0, so the fuzz
	// resumes can pass a nil sink and still reach the decode path.
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: base, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		f.Fatalf("expected simulated crash, got %v", err)
	}
	ckf, _, err := snapshot.LoadFile(base)
	if err != nil {
		f.Fatal(err)
	}
	imgIdx := make([]int, 0, len(ckf.Sections))
	for i, s := range ckf.Sections {
		if strings.HasPrefix(s.ID, "img.") {
			imgIdx = append(imgIdx, i)
		}
	}
	if len(imgIdx) == 0 {
		f.Fatal("fuzz checkpoint has no image sections")
	}
	f.Add(0, 0, byte(0xFF))
	f.Add(1, 5, byte(0x01))
	f.Add(2, 100, byte(0x80))
	f.Add(3, 7, byte(0xA5))
	f.Add(41, 12, byte(0x98))   // img.dfs block count: an unbounded allocation once
	f.Add(2, 10686, byte(0x10)) // an RNG tap in img.tracker past vec: a panic on the next draw once

	var runs int
	f.Fuzz(func(t *testing.T, section, offset int, flip byte) {
		if flip == 0 {
			return // no-op mutation: identical to the verified clean resume
		}
		idx := imgIdx[((section%len(imgIdx))+len(imgIdx))%len(imgIdx)]
		mut := &snapshot.File{Sections: make([]snapshot.Section, len(ckf.Sections))}
		copy(mut.Sections, ckf.Sections)
		data := append([]byte(nil), ckf.Sections[idx].Data...)
		if len(data) == 0 {
			return
		}
		pos := ((offset % len(data)) + len(data)) % len(data)
		data[pos] ^= flip
		mut.Sections[idx].Data = data

		runs++
		path := filepath.Join(dir, fmt.Sprintf("mut-%d.ckpt", runs))
		if err := snapshot.WriteFile(path, mut); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		defer os.Remove(path + snapshot.PrevSuffix)
		// Success is allowed only when the mutated image re-encodes to
		// itself (a valid image of some other state: the CRC, not the
		// resume check, guards on-disk integrity); errors must be
		// returned, not panicked.
		_, _ = ResumeWithMode(path, nil, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	})
}
