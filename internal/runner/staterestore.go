package runner

import (
	"fmt"

	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/snapshot"
)

// ResumeMode selects how ResumeWithMode/ResumeStreamWithMode rebuild a
// run's mutable state from a checkpoint. Any other value, the empty one
// included, is an error.
type ResumeMode string

const (
	// ResumeReplay reconstructs the run from its spec and replays the
	// event history from genesis to the cut — O(history). It is the
	// differential oracle state-mode restores are verified against.
	ResumeReplay ResumeMode = "replay"
	// ResumeState decodes the checkpoint's direct state image and
	// re-enqueues the pending-event set — O(state), independent of how
	// long the run had executed.
	ResumeState ResumeMode = "state"
)

// Event-tag kind ranges. The mapreduce layer owns 1–63 and the core
// policy layer 64–79 (see their tag declarations); the runner's stream
// driver owns 80–95.
const TagStreamWindow uint16 = 80

// streamWindowTag marks the service-mode window-boundary event. The
// closure is rebuilt from the stream driver itself; the boundary time
// rides the event coordinates, so the payload is empty.
type streamWindowTag struct{}

func (streamWindowTag) TagKind() uint16           { return TagStreamWindow }
func (streamWindowTag) EncodeTag(e *snapshot.Enc) {}

// ResumeInfo describes a checkpoint so a CLI can prepare the right sinks
// before resuming: a state-mode resume appends the post-cut suffix to the
// dead process's files (truncated to the recorded byte positions), while
// a replay rewrites both streams from genesis.
type ResumeInfo struct {
	// Stream reports a service-mode checkpoint (resume with
	// ResumeStreamWithMode).
	Stream bool
	// StateResumable is always true: every checkpoint carries a direct
	// state image and every build can decode it. It is kept for callers
	// that still read it.
	StateResumable bool
	// EventBytes/ReportBytes are the output-stream byte positions at the
	// cut (the prefix the original process had already written).
	EventBytes  int64
	ReportBytes int64
}

// InspectCheckpoint loads the checkpoint at path (falling back to the
// .prev generation when torn) and describes how it can be resumed.
func InspectCheckpoint(path string) (*ResumeInfo, error) {
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, err
	}
	spec, cur, err := decodeCheckpoint(f)
	if err != nil {
		return nil, err
	}
	return &ResumeInfo{
		Stream:         spec.Stream != nil,
		StateResumable: true,
		EventBytes:     cur.EventBytes,
		ReportBytes:    cur.ReportBytes,
	}, nil
}

// imageSections encodes the direct state image of the live run: one
// section per layer, each a self-contained byte string, in
// imageSectionIDs order. Any layer that cannot be serialized (an untagged
// pending event) fails the whole image, and with it the checkpoint write
// or resume verification.
//
// Each section is encoded into the durable's own reused encoder for that
// section, so the returned Data slices are valid only until the next call:
// callers write them (snapshot.WriteFile is synchronous) or compare them,
// and keep nothing.
func (d *durable) imageSections() ([]snapshot.Section, error) {
	rs := d.rs
	var out []snapshot.Section
	next := func() *snapshot.Enc {
		enc := d.sectionEnc(len(out))
		enc.Reset()
		return enc
	}
	add := func(id string, enc *snapshot.Enc) {
		out = append(out, snapshot.Section{ID: id, Data: enc.Data()})
	}

	enc := next()
	if err := rs.cluster.Eng.EncodePending(enc, d.watermark); err != nil {
		return nil, err
	}
	add(sectionImgEngine, enc)

	enc = next()
	if err := rs.cluster.NN.EncodeState(enc); err != nil {
		return nil, err
	}
	add(sectionImgDFS, enc)

	enc = next()
	if err := rs.tracker.EncodeState(enc); err != nil {
		return nil, err
	}
	add(sectionImgTracker, enc)

	enc = next()
	enc.Bool(rs.mgr != nil)
	if rs.mgr != nil {
		if err := rs.mgr.EncodeState(enc); err != nil {
			return nil, err
		}
	}
	enc.Bool(rs.scar != nil)
	if rs.scar != nil {
		if err := rs.scar.EncodeState(enc); err != nil {
			return nil, err
		}
	}
	add(sectionImgCore, enc)

	if d.stream != nil {
		enc = next()
		enc.Int(d.stream.nextWindow)
		if err := d.stream.src.EncodeState(enc); err != nil {
			return nil, err
		}
		add(sectionImgStream, enc)
	}

	enc = next()
	counts := rs.cluster.Bus.Counts()
	enc.U32(uint32(len(counts)))
	for _, v := range counts {
		enc.U64(v)
	}
	add(sectionImgCounts, enc)
	return out, nil
}

// sectionEnc returns the encoder kept for the i-th image section, making
// it on first use. Its buffer survives Reset, so a run's later checkpoints
// encode without regrowing.
func (d *durable) sectionEnc(i int) *snapshot.Enc {
	for len(d.encs) <= i {
		d.encs = append(d.encs, snapshot.NewEnc())
	}
	return d.encs[i]
}

// applyState performs the O(state) restore against the freshly
// reconstructed run: jump the engine to the cut, decode each layer's
// image, re-enqueue the pending-event set, then prove the restored state
// re-encodes to the stored image before the run goes live.
func (d *durable) applyState() error {
	r := d.cut
	d.cut = nil
	rs := d.rs
	eng := rs.cluster.Eng
	cur := r.cursor

	section := func(id string) *snapshot.Dec {
		data, _ := r.f.Section(id) // presence checked by decodeCheckpoint
		return snapshot.NewDec(data)
	}
	finish := func(id string, dec *snapshot.Dec) error {
		if err := dec.Finish(); err != nil {
			return fmt.Errorf("runner: checkpoint section %q: %w", id, err)
		}
		return nil
	}

	eng.BeginRestore(cur.Now, cur.Seq, cur.Processed)

	dec := section(sectionImgDFS)
	if err := rs.cluster.NN.DecodeState(dec); err != nil {
		return fmt.Errorf("runner: restoring DFS state: %w", err)
	}
	if err := finish(sectionImgDFS, dec); err != nil {
		return err
	}

	dec = section(sectionImgTracker)
	if err := rs.tracker.DecodeState(dec); err != nil {
		return fmt.Errorf("runner: restoring tracker state: %w", err)
	}
	if err := finish(sectionImgTracker, dec); err != nil {
		return err
	}

	dec = section(sectionImgCore)
	if hasMgr := dec.Bool(); hasMgr != (rs.mgr != nil) {
		return fmt.Errorf("runner: checkpoint image and rebuilt run disagree on the DARE manager (image %v, run %v)", hasMgr, rs.mgr != nil)
	}
	if rs.mgr != nil {
		if err := rs.mgr.DecodeState(dec); err != nil {
			return fmt.Errorf("runner: restoring policy state: %w", err)
		}
	}
	if hasScar := dec.Bool(); hasScar != (rs.scar != nil) {
		return fmt.Errorf("runner: checkpoint image and rebuilt run disagree on the Scarlett controller (image %v, run %v)", hasScar, rs.scar != nil)
	}
	if rs.scar != nil {
		if err := rs.scar.DecodeState(dec); err != nil {
			return fmt.Errorf("runner: restoring Scarlett state: %w", err)
		}
	}
	if err := finish(sectionImgCore, dec); err != nil {
		return err
	}

	if d.stream != nil {
		dec = section(sectionImgStream)
		d.stream.nextWindow = dec.Int()
		if err := d.stream.src.DecodeState(dec); err != nil {
			return fmt.Errorf("runner: restoring stream generator: %w", err)
		}
		if err := finish(sectionImgStream, dec); err != nil {
			return err
		}
	}

	dec = section(sectionImgEngine)
	if err := eng.DecodePending(dec, d.restoreEvent); err != nil {
		return fmt.Errorf("runner: restoring pending events: %w", err)
	}
	if err := finish(sectionImgEngine, dec); err != nil {
		return err
	}
	eng.FinishRestore()

	dec = section(sectionImgCounts)
	var counts event.Counts
	if n := int(dec.U32()); n != len(counts) {
		return fmt.Errorf("runner: checkpoint image counts %d event kinds, this build has %d", n, len(counts))
	}
	for i := range counts {
		counts[i] = dec.U64()
	}
	if err := finish(sectionImgCounts, dec); err != nil {
		return err
	}
	rs.cluster.Bus.RestoreCounts(counts)
	if rs.rec != nil {
		rs.rec.RestoreCounts(counts)
		if d.cw != nil {
			// Reconstruction-time events went to a throwaway sink (they are
			// the prefix the original process already wrote); arm the real
			// sink so only post-cut events reach it.
			rs.rec.RestoreSink(d.cw)
		}
	}

	// The restored state must re-encode to the stored image byte for
	// byte — the same comparison the replay path makes at the cut — so a
	// layer that decodes a field it does not encode, or drops one it
	// does, cannot go live.
	rows, err := d.imageDiff(r.f)
	if err != nil {
		return err
	}
	if len(rows) > 0 {
		return &DivergenceError{Rows: rows}
	}

	d.done = cur.Checkpoints
	eng.SetInterrupt(d.ck.Interrupt)
	d.nextStop = eng.Processed() + d.ck.every()
	return nil
}

// restoreEvent rebuilds one tagged pending event from its image record,
// dispatching on the layer that owns the kind range.
func (d *durable) restoreEvent(kind uint16, when sim.Time, seq uint64, payload *snapshot.Dec) error {
	eng := d.rs.cluster.Eng
	switch {
	case kind >= 1 && kind < 64:
		tag, fn, err := d.rs.tracker.DecodeEvent(kind, payload)
		if err != nil {
			return err
		}
		eng.RestoreEvent(when, seq, tag, fn)
	case kind >= 64 && kind < 80:
		var (
			tag core.EventTag
			fn  func()
			err error
		)
		switch {
		case d.rs.mgr != nil:
			tag, fn, err = d.rs.mgr.DecodeEvent(kind, payload)
		case d.rs.scar != nil:
			tag, fn, err = d.rs.scar.DecodeEvent(kind, payload)
		default:
			return fmt.Errorf("runner: checkpoint image holds a policy-layer event (kind %d) but the rebuilt run has no policy", kind)
		}
		if err != nil {
			return err
		}
		eng.RestoreEvent(when, seq, tag, fn)
	case kind == TagStreamWindow:
		if d.stream == nil {
			return fmt.Errorf("runner: checkpoint image holds a stream window event but the rebuilt run is batch")
		}
		eng.RestoreEvent(when, seq, streamWindowTag{}, d.stream.window)
	default:
		return fmt.Errorf("runner: checkpoint image holds an event with unknown tag kind %d", kind)
	}
	return nil
}
