package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// durableScenario builds fresh Options for one crash-resume scenario.
// Options must be rebuilt per run — Run consumes nothing, but the event
// log writer differs each time.
type durableScenario struct {
	name string
	opts func() Options
}

func durableScenarios() []durableScenario {
	return []durableScenario{
		{"plain-et-fifo", func() Options {
			return Options{
				Profile:   config.CCT(),
				Workload:  truncate(workload.WL1(7), 40),
				Scheduler: "fifo",
				Policy:    PolicyFor(core.ElephantTrapPolicy),
				Seed:      7,
			}
		}},
		{"churn-lru-fair", func() Options {
			return Options{
				Profile:   config.CCT(),
				Workload:  truncate(workload.WL2(11), 30),
				Scheduler: "fair",
				Policy:    PolicyFor(core.GreedyLRUPolicy),
				Seed:      11,
				Churn:     &ChurnSpec{MTTF: 30, MTTR: 4},
			}
		}},
		{"chaos-et-fifo", func() Options {
			return Options{
				Profile:   config.EC2(),
				Workload:  truncate(workload.WL1(42), 30),
				Scheduler: "fifo",
				Policy:    PolicyFor(core.ElephantTrapPolicy),
				Seed:      42,
				Chaos:     &ChaosSpec{Events: 6, Horizon: 8, CrashWeight: 1, SlowWeight: 1, CorruptWeight: 1, FlapWeight: 1, MTTR: 2, SlowMean: 2, SlowFactorMax: 3, FlapDown: 1},
			}
		}},
	}
}

// outputJSON canonicalizes an Output for byte comparison.
func outputJSON(t *testing.T, out *Output) []byte {
	t.Helper()
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runBaseline executes opts uncheckpointed with an event log attached.
func runBaseline(t *testing.T, opts Options) ([]byte, []byte) {
	t.Helper()
	var log bytes.Buffer
	opts.EventLog = &log
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return outputJSON(t, out), log.Bytes()
}

// TestArmedMatchesUnarmed: checkpoint writes are pure observation — a run
// with checkpointing armed produces the identical Output and event trace
// as the same run without it.
func TestArmedMatchesUnarmed(t *testing.T) {
	for _, sc := range durableScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			wantOut, wantLog := runBaseline(t, sc.opts())

			path := filepath.Join(t.TempDir(), "run.ckpt")
			var log bytes.Buffer
			opts := sc.opts()
			opts.EventLog = &log
			ckpts := 0
			out, err := RunCheckpointed(opts, CheckpointSpec{
				Path: path, Every: 300,
				AfterCheckpoint: func(n int) error { ckpts = n; return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if ckpts == 0 {
				t.Fatal("run finished without writing a single checkpoint; lower Every")
			}
			if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
				t.Errorf("armed run output diverges from unarmed\narmed:   %s\nunarmed: %s", got, wantOut)
			}
			if !bytes.Equal(log.Bytes(), wantLog) {
				t.Error("armed run event trace diverges from unarmed")
			}
		})
	}
}

// crashAfter aborts the run right after the nth durable checkpoint write,
// simulating a SIGKILL at a known boundary.
func crashAfter(n int) (func(int) error, error) {
	crashErr := errors.New("simulated crash")
	return func(done int) error {
		if done >= n {
			return crashErr
		}
		return nil
	}, crashErr
}

// TestKillAndResumeDifferential is the tentpole contract: a run killed at
// a checkpoint boundary and resumed produces the byte-identical Output
// and JSONL event trace as the same run left uninterrupted — across
// plain, churn, and chaos scenarios.
func TestKillAndResumeDifferential(t *testing.T) {
	for _, sc := range durableScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			wantOut, wantLog := runBaseline(t, sc.opts())

			path := filepath.Join(t.TempDir(), "run.ckpt")
			hook, crashErr := crashAfter(2)
			opts := sc.opts()
			opts.EventLog = &bytes.Buffer{} // discarded: the dead process's partial log
			_, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
			if !errors.Is(err, crashErr) {
				t.Fatalf("expected simulated crash, got %v", err)
			}

			var resumedLog bytes.Buffer
			out, err := ResumeWithMode(path, &resumedLog, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
			if err != nil {
				t.Fatal(err)
			}
			if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
				t.Errorf("resumed output diverges from uninterrupted run\nresumed: %s\nwant:    %s", got, wantOut)
			}
			if !bytes.Equal(resumedLog.Bytes(), wantLog) {
				t.Errorf("resumed event trace diverges from uninterrupted run (%d vs %d bytes)", resumedLog.Len(), len(wantLog))
			}
		})
	}
}

// TestResumeFallsBackToPrev: a SIGKILL mid-checkpoint-write leaves a torn
// primary; a resume must fall back to the previous good generation and
// still converge to the identical run.
func TestResumeFallsBackToPrev(t *testing.T) {
	sc := durableScenarios()[0]
	wantOut, wantLog := runBaseline(t, sc.opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(3)
	opts := sc.opts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}

	// Tear the primary: keep half the bytes, as a crash mid-write would.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumedLog bytes.Buffer
	out, err := ResumeWithMode(path, &resumedLog, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Error("resume from .prev generation diverges from uninterrupted run")
	}
	if !bytes.Equal(resumedLog.Bytes(), wantLog) {
		t.Error("resume from .prev generation: event trace diverges")
	}
}

// TestResumeDetectsDivergence: a checkpoint whose spec was tampered with
// (different seed — a stand-in for any determinism break between
// checkpointing and resuming) must be rejected with a DivergenceError,
// not silently produce a different run.
func TestResumeDetectsDivergence(t *testing.T) {
	sc := durableScenarios()[0]
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(2)
	opts := sc.opts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}

	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sections {
		if s.ID != sectionSpec {
			continue
		}
		spec, err := decodeSpec(s.Data)
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed++
		// The workload rides inline, so only the cluster-side streams
		// shift — exactly the subtle kind of divergence the image
		// comparison at the cut must catch.
		data, err := encodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.Sections[i].Data = data
	}
	if err := snapshot.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix) // no good generation to fall back to

	var log bytes.Buffer
	_, err = ResumeWithMode(path, &log, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("expected DivergenceError, got %v", err)
	}
}

// TestSpecRoundTrip: Options → RunSpec → JSON → RunSpec → Options must
// reproduce the identical run, including a declarative policy-file arm.
func TestSpecRoundTrip(t *testing.T) {
	set, err := config.BuiltinPolicy("elephanttrap")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Profile:   config.EC2(),
		Workload:  truncate(workload.WL2(13), 25),
		Scheduler: "fair",
		FairSkips: 3,
		PolicySet: set,
		Seed:      13,
		Churn:     &ChurnSpec{MTTF: 40, MTTR: 5},
	}
	spec, err := SpecFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := decodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantLog := runBaseline(t, opts)
	gotOut, gotLog := runBaseline(t, spec2.Options)
	if !bytes.Equal(gotOut, wantOut) {
		t.Errorf("round-tripped spec runs differently\ngot:  %s\nwant: %s", gotOut, wantOut)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Error("round-tripped spec: event trace diverges")
	}
}

// TestSpecRejectsSpeclessPolicySet: a hand-assembled PolicySet with no
// declarative source cannot be rebuilt on resume — typed error up front,
// not a silently lossy spec.
func TestSpecRejectsSpeclessPolicySet(t *testing.T) {
	opts := Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL1(7), 10),
		Scheduler: "fifo",
		PolicySet: &config.PolicySet{PolicySpec: config.PolicySpec{Name: "mystery", Kind: "elephanttrap"}},
		Seed:      7,
	}
	if _, err := SpecFromOptions(opts); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("expected ErrNotSnapshottable, got %v", err)
	}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: filepath.Join(t.TempDir(), "x.ckpt")}); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("RunCheckpointed: expected ErrNotSnapshottable, got %v", err)
	}
}

// TestResumeInterruptedStopsAtFirstBoundary: a resume whose interrupt
// line is already raised stops at the first live boundary with
// ErrInterrupted and a final checkpoint no more than one cadence past the
// cut it resumed; resuming that checkpoint to completion reproduces the
// uninterrupted run's Output, event trace and (in service mode) report
// stream byte for byte. Batch and stream, in both resume modes.
func TestResumeInterruptedStopsAtFirstBoundary(t *testing.T) {
	const every = 300
	for _, stream := range []bool{false, true} {
		for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
			name := "batch/" + string(mode)
			if stream {
				name = "stream/" + string(mode)
			}
			t.Run(name, func(t *testing.T) {
				// log and report are the files a real process appends to:
				// the dead run's partial output, then each resume spliced in.
				var wantOut, wantLog, wantReport []byte
				var log, report bytes.Buffer
				path := filepath.Join(t.TempDir(), "run.ckpt")
				hook, crashErr := crashAfter(2)
				ck := CheckpointSpec{Path: path, Every: every, AfterCheckpoint: hook}
				var err error
				if stream {
					wantOut, wantLog, wantReport = runStreamBaseline(t)
					opts := streamOpts()
					opts.EventLog = &log
					_, err = RunStream(opts, streamSpec(), &report, ck)
				} else {
					sc := durableScenarios()[0]
					wantOut, wantLog = runBaseline(t, sc.opts())
					opts := sc.opts()
					opts.EventLog = &log
					_, err = RunCheckpointed(opts, ck)
				}
				if !errors.Is(err, crashErr) {
					t.Fatalf("expected simulated crash, got %v", err)
				}

				// resume runs the checkpoint at path in mode and splices what
				// it writes into log and report: a replay rewrites both from
				// genesis, a state resume appends after the checkpoint's cursor.
				resume := func(interrupt bool) (*Output, error) {
					t.Helper()
					info, err := InspectCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					if mode == ResumeState && !info.StateResumable {
						t.Fatal("checkpoint is not state-resumable")
					}
					var stop atomic.Bool
					stop.Store(interrupt)
					var logOut, reportOut bytes.Buffer
					ck := CheckpointSpec{Path: path, Every: every, Interrupt: &stop}
					var out *Output
					if stream {
						out, err = ResumeStreamWithMode(path, &logOut, &reportOut, ck, mode)
					} else {
						out, err = ResumeWithMode(path, &logOut, ck, mode)
					}
					if mode == ResumeState {
						log.Truncate(int(info.EventBytes))
						report.Truncate(int(info.ReportBytes))
					} else {
						log.Reset()
						report.Reset()
					}
					log.Write(logOut.Bytes())
					report.Write(reportOut.Bytes())
					return out, err
				}

				before := checkpointCut(t, path)
				if _, err := resume(true); !errors.Is(err, ErrInterrupted) {
					t.Fatalf("pre-raised interrupt: want ErrInterrupted, got %v", err)
				}
				if after := checkpointCut(t, path); after < before || after-before > every {
					t.Fatalf("interrupted resume moved the cut from %d to %d events; want at most one cadence (%d)", before, after, every)
				}

				out, err := resume(false)
				if err != nil {
					t.Fatal(err)
				}
				if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
					t.Errorf("output diverges from the uninterrupted run\ngot:  %s\nwant: %s", got, wantOut)
				}
				if !bytes.Equal(log.Bytes(), wantLog) {
					t.Errorf("event trace diverges from the uninterrupted run (%d vs %d bytes)", log.Len(), len(wantLog))
				}
				if !bytes.Equal(report.Bytes(), wantReport) {
					t.Errorf("report stream diverges from the uninterrupted run (%d vs %d bytes)", report.Len(), len(wantReport))
				}
			})
		}
	}
}

// TestResumeNeedsRecordedSinks: a resume must be handed every sink the
// checkpoint recorded a prefix of, and no event log the run never had,
// in either mode and for either run shape, and a mode it knows. Each row
// fails before the run is rebuilt, with an error naming the sink or the
// mode.
func TestResumeNeedsRecordedSinks(t *testing.T) {
	dir := t.TempDir()
	batch := filepath.Join(dir, "batch.ckpt")
	crashForState(t, durableScenarios()[0].opts(), batch)
	svc := filepath.Join(dir, "svc.ckpt")
	hook, crashErr := crashAfter(2)
	opts := streamOpts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunStream(opts, streamSpec(), &bytes.Buffer{}, CheckpointSpec{Path: svc, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	// bareBatch and bareSvc recorded no event log.
	bareBatch, bareSvc := filepath.Join(dir, "bare-batch.ckpt"), filepath.Join(dir, "bare-svc.ckpt")
	if _, err := RunCheckpointed(durableScenarios()[0].opts(), CheckpointSpec{Path: bareBatch, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	if _, err := RunStream(streamOpts(), streamSpec(), &bytes.Buffer{}, CheckpointSpec{Path: bareSvc, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	for _, path := range []string{batch, svc} {
		info, err := InspectCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.EventBytes == 0 || (info.Stream && info.ReportBytes == 0) {
			t.Fatalf("%s recorded no prefix to guard: %+v", filepath.Base(path), info)
		}
	}

	type row struct {
		name            string
		path            string
		mode            ResumeMode
		noLog, noReport bool
		want            string
	}
	var rows []row
	for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
		rows = append(rows,
			row{"batch/" + string(mode) + "/no event log", batch, mode, true, true, "recorded an event log"},
			row{"stream/" + string(mode) + "/no event log", svc, mode, true, false, "recorded an event log"},
			row{"stream/" + string(mode) + "/no report", svc, mode, false, true, "stream report"},
			row{"batch/" + string(mode) + "/event log never recorded", bareBatch, mode, false, true, "recorded no event log"},
			row{"stream/" + string(mode) + "/event log never recorded", bareSvc, mode, false, false, "recorded no event log"},
		)
	}
	rows = append(rows,
		row{"empty mode", batch, "", false, true, `resume mode ""`},
		row{"unknown mode", batch, "bogus", false, true, `resume mode "bogus"`},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var log, report io.Writer = &bytes.Buffer{}, &bytes.Buffer{}
			if r.noLog {
				log = nil
			}
			if r.noReport {
				report = nil
			}
			_, err := ResumeStreamWithMode(r.path, log, report, CheckpointSpec{Path: r.path, Every: 300}, r.mode)
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("got %v, want an error naming %s", err, r.want)
			}
		})
	}
}

// checkpointCut is the processed-event count at the checkpoint at path.
func checkpointCut(t *testing.T, path string) uint64 {
	t.Helper()
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, cur, err := decodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	return cur.Processed
}
