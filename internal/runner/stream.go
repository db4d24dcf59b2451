package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dare/internal/workload"
)

// StreamRunSpec configures service mode (`dare-sim -stream`): an
// open-ended run whose jobs are synthesized window by window instead of
// replayed from a fixed trace. It is part of the checkpoint spec — a
// resumed service run regenerates the identical arrival sequence from it.
type StreamRunSpec struct {
	// Gen is the job sampler (same knobs as batch generation; NumJobs is
	// ignored — the stream never runs dry).
	Gen workload.GenConfig `json:"gen"`
	// DiurnalAmplitude/DiurnalPeriod modulate the arrival rate over a
	// daily cycle (see workload.StreamConfig).
	DiurnalAmplitude float64 `json:"diurnalAmplitude,omitempty"`
	DiurnalPeriod    float64 `json:"diurnalPeriod,omitempty"`
	// Window is the generation/report cadence in simulated seconds: at
	// each boundary the next window of arrivals is appended and one
	// report line is emitted.
	Window float64 `json:"window"`
	// Horizon stops generation at this simulated time and lets in-flight
	// jobs drain; 0 runs until interrupted.
	Horizon float64 `json:"horizon,omitempty"`
}

// StreamReportLine is one JSONL record of the service-mode metrics
// stream, emitted at every window boundary. Window metrics cover the
// window just ended; cumulative ones the whole run.
type StreamReportLine struct {
	T         float64 `json:"t"`
	Window    int     `json:"window"`
	Submitted int     `json:"submitted"`
	Completed int     `json:"completed"`
	Running   int     `json:"running"`
	// WindowArrivals counts jobs appended for the window now starting;
	// WindowCompleted and WindowMeanTurnaround cover jobs that finished
	// in the window just ended.
	WindowArrivals       int     `json:"windowArrivals"`
	WindowCompleted      int     `json:"windowCompleted"`
	WindowMeanTurnaround float64 `json:"windowMeanTurnaround,omitempty"`
}

// streamDriver owns service-mode generation: a self-rescheduling engine
// event at each window boundary appends the next window's arrivals and
// emits a report line. Generation is part of the event stream, so a
// resumed run replays it deterministically; the generator position rides
// the img.stream image section, which state-mode resume decodes and both
// resume modes verify.
type streamDriver struct {
	spec       StreamRunSpec
	src        *workload.Stream
	rs         *runState
	report     io.Writer // counting-wrapped; nil disables reporting
	nextWindow int
	reportErr  error
}

// prime appends the first window's arrivals (jobs arriving before the
// engine starts moving) and schedules the boundary event chain.
func (sd *streamDriver) prime() {
	sd.rs.tracker.AppendJobs(sd.src.Next(sd.spec.Window))
	sd.nextWindow = 1
	sd.rs.cluster.Eng.DeferAt(sd.spec.Window, sd.window)
}

func (sd *streamDriver) window() {
	eng := sd.rs.cluster.Eng
	t := sd.rs.tracker
	now := eng.Now()
	if sd.spec.Horizon > 0 && now >= sd.spec.Horizon {
		// Generation is over; drain in-flight work. If everything already
		// finished, stop here; otherwise hand the stop to the last job
		// completion (the tracker's batch behavior).
		if t.Completed() == t.TotalJobs() {
			eng.Stop()
			return
		}
		t.SetStreaming(false)
		return
	}
	jobs := sd.src.Next(now + sd.spec.Window)
	sd.emitReport(now, len(jobs))
	t.AppendJobs(jobs)
	sd.nextWindow++
	eng.DeferAtTag(now+sd.spec.Window, streamWindowTag{}, sd.window)
}

func (sd *streamDriver) emitReport(now float64, arrivals int) {
	if sd.report == nil || sd.reportErr != nil {
		return
	}
	t := sd.rs.tracker
	line := StreamReportLine{
		T:              now,
		Window:         sd.nextWindow - 1,
		Submitted:      t.TotalJobs(),
		Completed:      t.Completed(),
		Running:        t.TotalJobs() - t.Completed(),
		WindowArrivals: arrivals,
	}
	var sum float64
	for _, r := range t.Results() {
		if r.Finish > now-sd.spec.Window && r.Finish <= now {
			line.WindowCompleted++
			sum += r.Turnaround
		}
	}
	if line.WindowCompleted > 0 {
		line.WindowMeanTurnaround = sum / float64(line.WindowCompleted)
	}
	b, err := json.Marshal(line)
	if err == nil {
		b = append(b, '\n')
		_, err = sd.report.Write(b)
	}
	if err != nil {
		sd.reportErr = fmt.Errorf("runner: writing stream report: %w", err)
	}
}

// validateStreamOptions rejects option families whose horizons default to
// the workload's arrival span — a service run has no fixed span, so those
// scenarios need the batch driver.
func validateStreamOptions(opts Options, scfg StreamRunSpec) error {
	switch {
	case scfg.Window <= 0:
		return fmt.Errorf("runner: stream Window must be positive, got %v", scfg.Window)
	case scfg.Horizon > 0 && scfg.Horizon < scfg.Window:
		return fmt.Errorf("runner: stream Horizon %v is shorter than one Window %v", scfg.Horizon, scfg.Window)
	case opts.Workload != nil:
		return fmt.Errorf("runner: stream mode synthesizes its own workload; Options.Workload must be nil")
	case len(opts.Failures) > 0 || len(opts.Recoveries) > 0 || len(opts.RackFailures) > 0:
		return fmt.Errorf("runner: stream mode does not take explicit failure schedules")
	case opts.Churn != nil || opts.Chaos != nil || len(opts.MasterOutages) > 0:
		return fmt.Errorf("runner: stream mode does not take churn/chaos/master-outage scenarios (their horizons assume a fixed trace)")
	}
	return nil
}

// RunStream executes a service-mode run: open-ended generation in windows
// of scfg.Window simulated seconds, one StreamReportLine per window on
// report (nil disables), checkpoints every ck.Every events when ck.Path
// is set, and a final checkpoint plus ErrInterrupted when ck.Interrupt is
// raised. With scfg.Horizon > 0 generation stops there, in-flight jobs
// drain, and the Output summarizes everything that ran.
func RunStream(opts Options, scfg StreamRunSpec, report io.Writer, ck CheckpointSpec) (*Output, error) {
	if err := validateStreamOptions(opts, scfg); err != nil {
		return nil, err
	}
	return driveStream(opts, scfg, report, ck, nil, nil)
}

// ResumeStream continues a service-mode run from the checkpoint at path.
// eventLog and report must be fresh sinks when the original run had them
// (the replay re-emits both streams from genesis, byte-identically).
func ResumeStream(path string, eventLog, report io.Writer, ck CheckpointSpec) (*Output, error) {
	if ck.Path == "" {
		ck.Path = path
	}
	f, spec, cur, err := loadCheckpoint(path, true)
	if err != nil {
		return nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	opts.Workload = nil // rebuilt by the stream generator
	if eventLog != nil {
		opts.EventLog = eventLog
	} else if cur.EventBytes > 0 {
		return nil, fmt.Errorf("runner: checkpoint recorded an event log (%d bytes at cut); resume needs the re-opened sink to reproduce it", cur.EventBytes)
	}
	if report == nil && cur.ReportBytes > 0 {
		return nil, fmt.Errorf("runner: checkpoint recorded a stream report (%d bytes at cut); resume needs the re-opened sink to reproduce it", cur.ReportBytes)
	}
	if err := validateStreamOptions(opts, *spec.Stream); err != nil {
		return nil, err
	}
	return driveStream(opts, *spec.Stream, report, ck, &resumeCut{cursor: *cur, f: f}, mustSection(f, sectionSpec))
}

// driveStream is the shared wiring behind RunStream and ResumeStream. A
// nil cut starts fresh; a non-nil one replays from genesis to the cut,
// verifies, and continues live.
func driveStream(opts Options, scfg StreamRunSpec, report io.Writer, ck CheckpointSpec, cut *resumeCut, specData []byte) (*Output, error) {
	src := workload.NewStream(workload.StreamConfig{
		Gen:              scfg.Gen,
		DiurnalAmplitude: scfg.DiurnalAmplitude,
		DiurnalPeriod:    scfg.DiurnalPeriod,
	})
	opts.Workload = src.Workload()
	if specData == nil {
		spec, err := SpecFromOptions(opts)
		if err != nil {
			return nil, err
		}
		spec.Stream = &scfg
		if specData, err = encodeSpec(spec); err != nil {
			return nil, err
		}
	}
	var cw, rw *countingWriter
	if opts.EventLog != nil {
		cw = newCountingWriter(opts.EventLog)
		opts.EventLog = cw
	}
	if report != nil {
		rw = newCountingWriter(report)
		report = rw
	}
	rs, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	rs.tracker.SetStreaming(true)
	sd := &streamDriver{spec: scfg, src: src, rs: rs, report: report}
	d := &durable{rs: rs, ck: ck, specData: specData, cw: cw, rw: rw, stream: sd}
	if cut != nil {
		d.nextStop = cut.cursor.Processed
		d.cut = cut
	} else {
		d.nextStop = rs.cluster.Eng.Processed() + ck.every()
		if ck.Path == "" {
			d.nextStop = math.MaxUint64 // no checkpointing; run uninterrupted slices
		}
		rs.cluster.Eng.SetInterrupt(ck.Interrupt)
	}
	sd.prime()
	results, err := rs.tracker.RunWith(d.drive)
	if err != nil {
		return nil, err
	}
	if sd.reportErr != nil {
		return nil, sd.reportErr
	}
	if d.cut != nil {
		return nil, &DivergenceError{Rows: []string{fmt.Sprintf(
			"run completed at %d processed events, before the checkpoint cut at %d — the replay is not the run that was checkpointed",
			rs.cluster.Eng.Processed(), cut.cursor.Processed)}}
	}
	return rs.finish(results)
}
