package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

func streamOpts() Options {
	return Options{
		Profile:   config.CCT(),
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      5,
	}
}

func streamSpec() StreamRunSpec {
	return StreamRunSpec{
		Gen:              workload.GenConfig{Name: "wl1", Seed: 5, MeanInterarrival: 0.8},
		DiurnalAmplitude: 0.4,
		DiurnalPeriod:    40,
		Window:           5,
		Horizon:          30,
	}
}

// runStreamBaseline executes an uninterrupted service run with both sinks
// attached and no checkpointing.
func runStreamBaseline(t *testing.T) ([]byte, []byte, []byte) {
	t.Helper()
	var log, report bytes.Buffer
	opts := streamOpts()
	opts.EventLog = &log
	out, err := RunStream(opts, streamSpec(), &report, CheckpointSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return outputJSON(t, out), log.Bytes(), report.Bytes()
}

// TestStreamDeterminism: two identical service runs produce byte-equal
// output, event trace, and report stream.
func TestStreamDeterminism(t *testing.T) {
	o1, l1, r1 := runStreamBaseline(t)
	o2, l2, r2 := runStreamBaseline(t)
	if !bytes.Equal(o1, o2) {
		t.Error("stream runs with identical spec produced different outputs")
	}
	if !bytes.Equal(l1, l2) {
		t.Error("stream runs with identical spec produced different event traces")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("stream runs with identical spec produced different reports")
	}
	if len(r1) == 0 {
		t.Fatal("stream run emitted no report lines")
	}
	// Report lines must be valid JSONL with strictly increasing windows.
	lines := strings.Split(strings.TrimSuffix(string(r1), "\n"), "\n")
	prev := -1
	for _, ln := range lines {
		var rec StreamReportLine
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad report line %q: %v", ln, err)
		}
		if rec.Window <= prev {
			t.Fatalf("report windows not increasing: %d after %d", rec.Window, prev)
		}
		prev = rec.Window
	}
}

// TestStreamHorizonDrain: generation stops at the horizon and every
// submitted job still completes — the Output covers the full drained run.
func TestStreamHorizonDrain(t *testing.T) {
	var log bytes.Buffer
	opts := streamOpts()
	opts.EventLog = &log
	out, err := RunStream(opts, streamSpec(), nil, CheckpointSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Jobs == 0 {
		t.Fatal("horizon run submitted no jobs")
	}
	if out.Summary.Makespan <= 0 {
		t.Fatal("horizon run has no makespan; jobs did not drain")
	}
}

// TestStreamKillAndResumeDifferential is the service-mode tentpole
// contract: a streaming run killed after a checkpoint and resumed
// produces byte-identical Output, event trace, AND report stream vs the
// uninterrupted run — including the regenerated arrivals.
func TestStreamKillAndResumeDifferential(t *testing.T) {
	wantOut, wantLog, wantReport := runStreamBaseline(t)

	path := filepath.Join(t.TempDir(), "svc.ckpt")
	hook, crashErr := crashAfter(2)
	opts := streamOpts()
	opts.EventLog = &bytes.Buffer{}
	_, err := RunStream(opts, streamSpec(), &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
	if !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}

	var log, report bytes.Buffer
	out, err := ResumeStreamWithMode(path, &log, &report, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Errorf("resumed stream output diverges\nresumed: %s\nwant:    %s", got, wantOut)
	}
	if !bytes.Equal(log.Bytes(), wantLog) {
		t.Errorf("resumed stream event trace diverges (%d vs %d bytes)", log.Len(), len(wantLog))
	}
	if !bytes.Equal(report.Bytes(), wantReport) {
		t.Errorf("resumed stream report diverges (%d vs %d bytes)\nresumed: %s\nwant:    %s",
			report.Len(), len(wantReport), report.Bytes(), wantReport)
	}
}

// TestResumeReadsShapeFromCheckpoint: the checkpoint, not the call,
// says whether a run is batch or stream. ResumeWithMode continues a
// stream checkpoint that recorded no report, and ResumeStreamWithMode a
// batch checkpoint given no report, each byte-identical to the
// uninterrupted run in both modes; a report for a batch run is an error.
func TestResumeReadsShapeFromCheckpoint(t *testing.T) {
	streamOut, streamLog, _ := runStreamBaseline(t)
	sc := durableScenarios()[0]
	batchOut, batchLog := runBaseline(t, sc.opts())
	dir := t.TempDir()
	svc, batch := filepath.Join(dir, "svc.ckpt"), filepath.Join(dir, "batch.ckpt")
	var svcLog bytes.Buffer
	hook, crashErr := crashAfter(1)
	opts := streamOpts()
	opts.EventLog = &svcLog
	if _, err := RunStream(opts, streamSpec(), nil, CheckpointSpec{Path: svc, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	batchPartial := crashForState(t, sc.opts(), batch)

	for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
		for _, r := range []struct {
			name, path       string
			prefix           []byte
			wantOut, wantLog []byte
			resume           func(log *bytes.Buffer, ck CheckpointSpec) (*Output, error)
		}{
			{"ResumeWithMode/stream", svc, svcLog.Bytes(), streamOut, streamLog, func(log *bytes.Buffer, ck CheckpointSpec) (*Output, error) {
				return ResumeWithMode(svc, log, ck, mode)
			}},
			{"ResumeStreamWithMode/batch", batch, batchPartial, batchOut, batchLog, func(log *bytes.Buffer, ck CheckpointSpec) (*Output, error) {
				return ResumeStreamWithMode(batch, log, nil, ck, mode)
			}},
		} {
			t.Run(r.name+"/"+string(mode), func(t *testing.T) {
				info, err := InspectCheckpoint(r.path)
				if err != nil {
					t.Fatal(err)
				}
				var log bytes.Buffer
				if mode == ResumeState {
					log.Write(r.prefix[:info.EventBytes])
				}
				// The resumed run checkpoints elsewhere, so every row resumes
				// the same cut.
				out, err := r.resume(&log, CheckpointSpec{Path: filepath.Join(t.TempDir(), "run.ckpt")})
				if err != nil {
					t.Fatal(err)
				}
				if got := outputJSON(t, out); !bytes.Equal(got, r.wantOut) {
					t.Errorf("output diverges from the uninterrupted run\ngot:  %s\nwant: %s", got, r.wantOut)
				}
				if !bytes.Equal(log.Bytes(), r.wantLog) {
					t.Errorf("event trace diverges from the uninterrupted run (%d vs %d bytes)", log.Len(), len(r.wantLog))
				}
			})
		}
	}

	_, err := ResumeStreamWithMode(batch, &bytes.Buffer{}, &bytes.Buffer{}, CheckpointSpec{}, ResumeState)
	if err == nil || !strings.Contains(err.Error(), "holds a batch run, which writes no stream report") {
		t.Errorf("ResumeStreamWithMode on a batch checkpoint with a report: got %v, want the batch-run error", err)
	}
}

// TestStreamValidation: option families incompatible with service mode
// are rejected up front.
func TestStreamValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options, *StreamRunSpec)
	}{
		{"zero-window", func(o *Options, s *StreamRunSpec) { s.Window = 0 }},
		{"horizon-lt-window", func(o *Options, s *StreamRunSpec) { s.Horizon = 1 }},
		{"explicit-workload", func(o *Options, s *StreamRunSpec) { o.Workload = truncate(workload.WL1(1), 5) }},
		{"failure-schedule", func(o *Options, s *StreamRunSpec) { o.Failures = []NodeFailure{{Node: 1, At: 2}} }},
		{"churn", func(o *Options, s *StreamRunSpec) { o.Churn = &ChurnSpec{MTTF: 10, MTTR: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := streamOpts()
			scfg := streamSpec()
			tc.mut(&opts, &scfg)
			if _, err := RunStream(opts, scfg, nil, CheckpointSpec{}); err == nil {
				t.Error("expected validation error, got nil")
			}
		})
	}
}

// TestStreamReportWindowsMatchResults runs a service stream of more than
// 100 report windows, kills it at its middle checkpoint and resumes it in
// state mode. The spliced report must equal the uninterrupted run's, and
// every line's completion figures must equal those recomputed from the
// run's final Output.Results: the report reads only each window's
// suffix of the finish-ordered results, and a state image keeps that
// order.
func TestStreamReportWindowsMatchResults(t *testing.T) {
	spec := streamSpec()
	spec.Window, spec.Horizon = 1, 120
	const every = 400

	// The uninterrupted run also counts the checkpoints the cadence writes.
	var written int
	var wantReport bytes.Buffer
	opts := streamOpts()
	out, err := RunStream(opts, spec, &wantReport, CheckpointSpec{
		Path: filepath.Join(t.TempDir(), "count.ckpt"), Every: every,
		AfterCheckpoint: func(n int) error { written = n; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if written < 2 {
		t.Fatalf("only %d checkpoints; the run has no middle to cut at", written)
	}

	path := filepath.Join(t.TempDir(), "svc.ckpt")
	hook, crashErr := crashAfter(written / 2)
	var report bytes.Buffer
	if _, err := RunStream(opts, spec, &report, CheckpointSpec{Path: path, Every: every, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var suffix bytes.Buffer
	if _, err := ResumeStreamWithMode(path, nil, &suffix, CheckpointSpec{}, ResumeState); err != nil {
		t.Fatal(err)
	}
	report.Truncate(int(info.ReportBytes))
	report.Write(suffix.Bytes())
	if !bytes.Equal(report.Bytes(), wantReport.Bytes()) {
		t.Fatalf("state-resumed report diverges from the uninterrupted run (%d vs %d bytes)", report.Len(), wantReport.Len())
	}

	lines := strings.Split(strings.TrimSuffix(report.String(), "\n"), "\n")
	if len(lines) < 100 {
		t.Fatalf("%d report windows, want at least 100", len(lines))
	}
	for _, ln := range lines {
		var got StreamReportLine
		if err := json.Unmarshal([]byte(ln), &got); err != nil {
			t.Fatalf("bad report line %q: %v", ln, err)
		}
		want := StreamReportLine{T: got.T, Window: got.Window, Submitted: got.Submitted, Running: got.Running, WindowArrivals: got.WindowArrivals}
		var sum float64
		for _, r := range out.Results { // sorted by job ID
			if r.Finish <= got.T {
				want.Completed++
			}
			if r.Finish > got.T-spec.Window && r.Finish <= got.T {
				want.WindowCompleted++
				sum += r.Turnaround
			}
		}
		if want.WindowCompleted > 0 {
			want.WindowMeanTurnaround = sum / float64(want.WindowCompleted)
		}
		if got != want {
			t.Fatalf("window %d: report %+v, recomputed from results %+v", got.Window, got, want)
		}
	}
}
