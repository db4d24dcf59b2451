package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync/atomic"

	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// Checkpoint section IDs inside a snapshot.File.
const (
	sectionSpec   = "spec"   // RunSpec JSON — the run's serializable identity
	sectionCursor = "cursor" // cursorRec JSON — where the run was cut

	// Direct state image, one section per layer: the only description of
	// the run's state. State-mode resume decodes it; both resume modes
	// verify against it byte for byte.
	sectionImgEngine  = "img.engine"  // pending-event set (genesis refs + tagged records)
	sectionImgDFS     = "img.dfs"     // name-node registry
	sectionImgTracker = "img.tracker" // compute layer: jobs, slots, scheduler, in-flight tasks
	sectionImgCore    = "img.core"    // DARE manager / Scarlett controller
	sectionImgStream  = "img.stream"  // service-mode generator cursor
	sectionImgCounts  = "img.counts"  // bus event tallies at the cut
)

// imageSectionIDs lists the image sections a checkpoint of the given
// shape carries, in write order.
func imageSectionIDs(stream bool) []string {
	ids := []string{sectionImgEngine, sectionImgDFS, sectionImgTracker, sectionImgCore}
	if stream {
		ids = append(ids, sectionImgStream)
	}
	return append(ids, sectionImgCounts)
}

// DefaultCheckpointEvery is the checkpoint cadence (in processed
// simulation events) when CheckpointSpec.Every is unset.
const DefaultCheckpointEvery = 200_000

// ErrInterrupted reports that the interrupt line was raised; the run
// stopped at a clean between-events boundary and, when checkpointing was
// armed, a final checkpoint was flushed first — resuming from it continues
// the run as if the interrupt never happened.
var ErrInterrupted = errors.New("runner: run interrupted")

// CheckpointSpec arms durable checkpointing for every checkpointed run:
// RunCheckpointed, RunStream and the resumes.
type CheckpointSpec struct {
	// Path is the checkpoint file; Path+".prev" keeps the previous good
	// generation (see snapshot.WriteFile).
	Path string
	// Every is the cadence in processed simulation events (<= 0 uses
	// DefaultCheckpointEvery).
	Every uint64
	// Interrupt, when non-nil, is polled between events: setting it (from
	// a signal handler) makes the run flush a final checkpoint and return
	// ErrInterrupted.
	Interrupt *atomic.Bool
	// AfterCheckpoint, when non-nil, runs after each durable checkpoint
	// write with the 1-based count written so far. An error aborts the
	// run — the crash-resume tests and dare-sim's -crash-after-checkpoints
	// use it to die at an exact, reproducible boundary.
	AfterCheckpoint func(n int) error
}

func (c CheckpointSpec) every() uint64 {
	if c.Every == 0 {
		return DefaultCheckpointEvery
	}
	return c.Every
}

// DivergenceError reports that a resumed run's state does not match the
// checkpoint it resumed from — determinism was broken between the
// checkpointing build/config and the resuming one, or the image does not
// round-trip. Rows name what diverged: the engine clock, an output
// stream, or an image section with its first differing byte offset.
type DivergenceError struct{ Rows []string }

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("runner: resumed state diverges from checkpoint: %s", strings.Join(e.Rows, "; "))
}

// cursorRec pins the cut point: the engine's processed-event count (the
// replay target), its clock and sequence counter, and the byte/CRC
// position of each externally visible output stream at the cut. The
// output positions let a resume prove the re-emitted prefix is identical to
// what the original process had already written.
type cursorRec struct {
	Processed uint64  `json:"processed"`
	Now       float64 `json:"now"`
	Seq       uint64  `json:"seq"`

	EventBytes int64  `json:"eventBytes"`
	EventCRC   uint32 `json:"eventCRC,omitempty"`

	ReportBytes int64  `json:"reportBytes,omitempty"`
	ReportCRC   uint32 `json:"reportCRC,omitempty"`

	// Checkpoints counts durable writes so far (resume continues the
	// AfterCheckpoint numbering rather than restarting it).
	Checkpoints int `json:"checkpoints"`

	// StreamEmitted/StreamNext record the stream generator position for
	// service-mode runs (0 for batch runs).
	StreamEmitted int `json:"streamEmitted,omitempty"`
	StreamNext    int `json:"streamNext,omitempty"`
}

// countingWriter tracks the byte count and running CRC-32 of an output
// stream from genesis — the cheap identity of its prefix. A state resume
// starts it at the cut's recorded position, so its sink receives only the
// suffix while the count and CRC still cover the whole stream.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// durable drives a runState in checkpointed slices: it is the RunWith
// drive closure launch installs for every checkpointed run, fresh or
// resumed, batch or stream. The nextStop watermark persists across the
// tracker's drive segments (workload horizon, then each repair-drain
// extension), so checkpoint cadence is uniform in processed events
// regardless of segmentation.
type durable struct {
	rs       *runState
	ck       CheckpointSpec
	specData []byte
	cw       *countingWriter // event-log wrapper; nil when no event log
	rw       *countingWriter // stream-report wrapper; nil without a report
	stream   *streamDriver   // non-nil for service-mode runs

	nextStop uint64
	done     int // durable checkpoints written

	// cut is the checkpoint a resumed run continues from, nil once the
	// run is live: a state restore applies it at first drive entry, a
	// replay verifies against it when the engine reaches its cursor.
	cut *resumeCut

	// watermark is the engine sequence at first drive entry — the genesis
	// boundary for WalkPending. Events below it are recreated by
	// deterministic reconstruction; events above must carry state tags.
	watermark  uint64
	wmCaptured bool

	// walks holds one encoding walker per image section, each over its own
	// encoder, reused by every imageSections call of the run (see
	// sectionWalker).
	walks []*snapshot.Walker
	// tagWalk is the decoding walker every tagged pending event's payload
	// is read through (see restoreEvent).
	tagWalk snapshot.Walker
}

// resumeCut is the checkpoint a resume continues from: the recorded
// cursor, the file whose image sections the resumed state must
// reproduce, and how the run reaches it.
type resumeCut struct {
	cursor cursorRec
	f      *snapshot.File
	mode   ResumeMode // ResumeState decodes the image; ResumeReplay replays to it
}

func (d *durable) drive(eng *sim.Engine, until float64) error {
	if !d.wmCaptured {
		// First drive entry: construction and genesis scheduling are done,
		// nothing has processed. This sequence number separates genesis
		// events (recreated by reconstruction) from runtime ones (which
		// need tags) — and it is the moment a state image can be applied.
		d.wmCaptured = true
		d.watermark = eng.Seq()
		if d.cut != nil && d.cut.mode == ResumeState {
			if err := d.applyState(); err != nil {
				return err
			}
		}
	}
	for {
		switch eng.RunUntilOutcome(until, d.nextStop) {
		case sim.RunBudget:
			if d.cut != nil && eng.Processed() == d.cut.cursor.Processed {
				if err := d.verifyCut(); err != nil {
					return err
				}
				// The replay is verified: from here the run is live. Arm
				// the interrupt line and fall into the normal cadence.
				d.cut = nil
				eng.SetInterrupt(d.ck.Interrupt)
				d.nextStop = eng.Processed() + d.ck.every()
				continue
			}
			if err := d.checkpoint(); err != nil {
				return err
			}
			d.nextStop = eng.Processed() + d.ck.every()
		case sim.RunInterrupted:
			if err := d.checkpoint(); err != nil {
				return err
			}
			return ErrInterrupted
		default:
			// Drained or stopped: this drive segment is complete.
			return nil
		}
	}
}

// checkpoint flushes the recorder (so the output cursors are exact) and
// writes one durable generation. Checkpointing is pure observation: it
// processes no events and draws from no stream, so an armed run is
// byte-identical to an unarmed one.
func (d *durable) checkpoint() error {
	if d.rs.rec != nil {
		// Flush even when unarmed: an interrupt-only run must leave its
		// JSONL sink complete up to the stop boundary.
		if err := d.rs.rec.Flush(); err != nil {
			return fmt.Errorf("runner: flushing event log before checkpoint: %w", err)
		}
	}
	if d.ck.Path == "" {
		// Checkpointing unarmed (a run driven only for interrupt support):
		// nothing durable to write.
		return nil
	}
	cur := d.cursorNow()
	cur.Checkpoints = d.done + 1
	curData, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	img, err := d.imageSections()
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint state image: %w", err)
	}
	f := &snapshot.File{Sections: append([]snapshot.Section{
		{ID: sectionSpec, Data: d.specData},
		{ID: sectionCursor, Data: curData},
	}, img...)}
	if err := snapshot.WriteFile(d.ck.Path, f); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	d.done++
	if d.ck.AfterCheckpoint != nil {
		if err := d.ck.AfterCheckpoint(d.done); err != nil {
			return err
		}
	}
	return nil
}

func (d *durable) cursorNow() cursorRec {
	eng := d.rs.cluster.Eng
	cur := cursorRec{
		Processed:   eng.Processed(),
		Now:         eng.Now(),
		Seq:         eng.Seq(),
		Checkpoints: d.done,
	}
	if d.cw != nil {
		cur.EventBytes, cur.EventCRC = d.cw.n, d.cw.crc
	}
	if d.rw != nil {
		cur.ReportBytes, cur.ReportCRC = d.rw.n, d.rw.crc
	}
	if d.stream != nil {
		cur.StreamEmitted = d.stream.src.Emitted()
		cur.StreamNext = d.stream.nextWindow
	}
	return cur
}

// verifyCut proves the replayed run is the run that was checkpointed: the
// re-encoded state image and every output stream's byte/CRC position must
// match what the checkpoint recorded at the same processed-event count.
// Any mismatch is a DivergenceError naming what diverged.
func (d *durable) verifyCut() error {
	if d.rs.rec != nil {
		if err := d.rs.rec.Flush(); err != nil {
			return fmt.Errorf("runner: flushing event log at resume cut: %w", err)
		}
	}
	var rows []string
	now := d.cursorNow()
	want := d.cut.cursor
	if now.Now != want.Now || now.Seq != want.Seq {
		rows = append(rows, fmt.Sprintf("engine clock/seq: got (%v, %d), checkpoint (%v, %d)", now.Now, now.Seq, want.Now, want.Seq))
	}
	// resume guarantees a missing sink recorded nothing, so a stream
	// without a writer compares as zero bytes with CRC 0.
	if now.EventBytes != want.EventBytes || now.EventCRC != want.EventCRC {
		rows = append(rows, fmt.Sprintf("event log: got %d bytes crc %08x, checkpoint %d bytes crc %08x", now.EventBytes, now.EventCRC, want.EventBytes, want.EventCRC))
	}
	if now.ReportBytes != want.ReportBytes || now.ReportCRC != want.ReportCRC {
		rows = append(rows, fmt.Sprintf("stream report: got %d bytes crc %08x, checkpoint %d bytes crc %08x", now.ReportBytes, now.ReportCRC, want.ReportBytes, want.ReportCRC))
	}
	imgRows, err := d.imageDiff(d.cut.f)
	if err != nil {
		return err
	}
	if rows = append(rows, imgRows...); len(rows) > 0 {
		return &DivergenceError{Rows: rows}
	}
	d.done = want.Checkpoints
	return nil
}

// RunCheckpointed is Run with durable checkpoints every ck.Every processed
// events: a process killed at any instant can continue from the last good
// generation with ResumeWithMode and produce the identical Output and
// event trace. When ck.Interrupt is raised mid-run it returns
// ErrInterrupted after flushing a final checkpoint. With an empty Path and
// a non-nil Interrupt the run is interrupt-only: nothing durable is
// written, but a raised line still stops it cleanly between events with
// the event log flushed.
func RunCheckpointed(opts Options, ck CheckpointSpec) (*Output, error) {
	if ck.Path == "" && ck.Interrupt == nil {
		return nil, fmt.Errorf("runner: CheckpointSpec needs a Path (durable checkpoints) or an Interrupt line (clean-stop only)")
	}
	return launch(opts, nil, nil, ck, nil)
}

// ResumeWithMode continues the run, batch or stream, from the checkpoint
// at path (falling back to path+".prev" when the primary is torn — a
// SIGKILL mid-write) and keeps checkpointing with ck's cadence; a stream
// resumed here writes no report. ResumeState decodes the checkpoint's
// state image, and eventLog receives only the post-cut suffix of the
// trace (the prefix is already in the original process's log, truncated
// to the cut). ResumeReplay rebuilds the run from its spec and replays
// from genesis to the cut, and eventLog, a fresh sink, receives the
// complete trace. Either way the resumed state is verified against the
// image (a mismatch is a DivergenceError) before the run goes live.
func ResumeWithMode(path string, eventLog io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return resume(path, eventLog, nil, ck, mode)
}

// resume loads the checkpoint at path, checks that the caller's sinks are
// the ones the checkpoint recorded — every stream it recorded a prefix
// of, no event log it never had, no report for a batch run — and
// launches the run the checkpoint describes from the cut.
func resume(path string, eventLog, report io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	if mode != ResumeReplay && mode != ResumeState {
		return nil, fmt.Errorf("runner: unknown resume mode %q (want %q or %q)", mode, ResumeReplay, ResumeState)
	}
	if ck.Path == "" {
		ck.Path = path
	}
	f, spec, cur, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	switch {
	case spec.Stream == nil && report != nil:
		return nil, fmt.Errorf("runner: checkpoint %s holds a batch run, which writes no stream report", path)
	case eventLog == nil && cur.EventBytes > 0:
		return nil, fmt.Errorf("runner: checkpoint recorded an event log (%d bytes at cut); resume needs the re-opened sink", cur.EventBytes)
	case eventLog != nil && cur.EventBytes == 0:
		// A recorded log holds the genesis placements by the first
		// checkpoint, so an empty one was never armed.
		return nil, fmt.Errorf("runner: checkpoint recorded no event log; resume cannot add one")
	case report == nil && cur.ReportBytes > 0:
		return nil, fmt.Errorf("runner: checkpoint recorded a stream report (%d bytes at cut); resume needs the re-opened sink", cur.ReportBytes)
	}
	opts := spec.Options
	opts.EventLog = eventLog
	if spec.Stream != nil {
		opts.Workload = nil // rebuilt by the stream generator
	}
	return launch(opts, spec.Stream, report, ck, &resumeCut{cursor: *cur, f: f, mode: mode})
}

// launch builds one checkpointed run and drives it to the end: the single
// path behind fresh and resumed, batch and stream runs. The event sink is
// opts.EventLog; a non-nil scfg makes a service-mode run that writes its
// per-window lines to report. A nil cut starts fresh; otherwise the run
// continues from the cut by its mode.
func launch(opts Options, scfg *StreamRunSpec, report io.Writer, ck CheckpointSpec, cut *resumeCut) (*Output, error) {
	var src *workload.Stream
	if scfg != nil {
		if err := validateStreamOptions(opts, *scfg); err != nil {
			return nil, err
		}
		src = workload.NewStream(workload.StreamConfig{
			Gen:              scfg.Gen,
			DiurnalAmplitude: scfg.DiurnalAmplitude,
			DiurnalPeriod:    scfg.DiurnalPeriod,
		})
		opts.Workload = src.Workload()
	}
	d := &durable{ck: ck, cut: cut}
	switch {
	case cut != nil:
		d.specData = mustSection(cut.f, sectionSpec)
	case ck.Path != "":
		spec, err := SpecFromOptions(opts)
		if err != nil {
			return nil, err
		}
		spec.Stream = scfg
		if d.specData, err = encodeSpec(spec); err != nil {
			return nil, err
		}
	}
	restoring := cut != nil && cut.mode == ResumeState
	var at cursorRec // where the output streams continue from
	if restoring {
		at = cut.cursor
	}
	if opts.EventLog != nil {
		d.cw = &countingWriter{w: opts.EventLog, n: at.EventBytes, crc: at.EventCRC}
		opts.EventLog = d.cw
		if restoring {
			// Reconstruction republishes genesis placements, which the dead
			// process already wrote: a recorder over io.Discard formats
			// nothing until applyState arms the real sink.
			opts.EventLog = io.Discard
		}
	}
	if report != nil {
		// Report lines come only from window boundaries, which a restore
		// never re-runs before the cut, so the report needs no discard.
		d.rw = &countingWriter{w: report, n: at.ReportBytes, crc: at.ReportCRC}
	}
	rs, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	d.rs = rs
	eng := rs.cluster.Eng
	switch {
	case cut == nil:
		d.nextStop = eng.Processed() + ck.every()
		eng.SetInterrupt(ck.Interrupt)
	case !restoring:
		// The interrupt line stays unarmed until the cut verifies: a signal
		// during fast-forward must not write a checkpoint generation that
		// precedes the one being resumed. applyState arms it on a restore.
		d.nextStop = cut.cursor.Processed
	}
	if scfg != nil {
		rs.tracker.SetStreaming(true)
		d.stream = &streamDriver{spec: *scfg, src: src, rs: rs}
		if d.rw != nil {
			d.stream.report = d.rw
		}
		d.stream.prime()
	}
	results, err := rs.tracker.RunWith(d.drive)
	if err != nil {
		return nil, err
	}
	if d.stream != nil && d.stream.reportErr != nil {
		return nil, d.stream.reportErr
	}
	if d.cut != nil {
		return nil, &DivergenceError{Rows: []string{fmt.Sprintf(
			"run completed at %d processed events, before the checkpoint cut at %d — the replay is not the run that was checkpointed",
			eng.Processed(), cut.cursor.Processed)}}
	}
	return rs.finish(results)
}

// decodeCheckpoint parses the spec and cursor sections and checks that
// every image section the run shape needs is present.
func decodeCheckpoint(f *snapshot.File) (*RunSpec, *cursorRec, error) {
	specData, ok := f.Section(sectionSpec)
	if !ok {
		return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, sectionSpec)
	}
	spec, err := decodeSpec(specData)
	if err != nil {
		return nil, nil, err
	}
	curData, ok := f.Section(sectionCursor)
	if !ok {
		return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, sectionCursor)
	}
	var cur cursorRec
	if err := decodeSection(curData, &cur, sectionCursor); err != nil {
		return nil, nil, err
	}
	if cur.EventBytes < 0 || cur.ReportBytes < 0 || cur.Checkpoints < 0 || cur.StreamEmitted < 0 || cur.StreamNext < 0 || cur.Now < 0 {
		return nil, nil, fmt.Errorf("%w: checkpoint %q section holds a negative position: %s", snapshot.ErrFormat, sectionCursor, curData)
	}
	for _, id := range imageSectionIDs(spec.Stream != nil) {
		if _, ok := f.Section(id); !ok {
			return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, id)
		}
	}
	return spec, &cur, nil
}

// loadCheckpoint reads and decodes the checkpoint at path, falling back
// to the .prev generation when the primary is torn.
func loadCheckpoint(path string) (*snapshot.File, *RunSpec, *cursorRec, error) {
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, cur, err := decodeCheckpoint(f)
	return f, spec, cur, err
}

// imageDiff re-encodes the live run's state image and byte-compares each
// section with the one stored in f: one row per differing section, naming
// the first differing byte offset.
func (d *durable) imageDiff(f *snapshot.File) ([]string, error) {
	// Presize each encoder to the stored section: a matching image then
	// encodes without regrowing.
	for i, id := range imageSectionIDs(d.stream != nil) {
		stored, _ := f.Section(id)
		enc := d.sectionWalker(i).Enc()
		enc.Reset()
		enc.Grow(len(stored))
	}
	img, err := d.imageSections()
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, s := range img {
		stored, _ := f.Section(s.ID) // presence checked by decodeCheckpoint
		if bytes.Equal(s.Data, stored) {
			continue
		}
		off := 0
		for off < len(s.Data) && off < len(stored) && s.Data[off] == stored[off] {
			off++
		}
		rows = append(rows, fmt.Sprintf("section %q: first differing byte at offset %d (resumed run %d bytes, checkpoint %d)",
			s.ID, off, len(s.Data), len(stored)))
	}
	return rows, nil
}

func mustSection(f *snapshot.File, id string) []byte {
	b, _ := f.Section(id)
	return b
}
