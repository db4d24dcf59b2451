package runner

import (
	"fmt"

	"dare/internal/core"
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

func (streamWindowTag) TagKind() uint16            { return TagStreamWindow }
func (streamWindowTag) WalkTag(w *snapshot.Walker) {}

// ResumeInfo describes a checkpoint so a CLI can prepare the right sinks
// before resuming: a state-mode resume appends the post-cut suffix to the
// dead process's files (truncated to the recorded byte positions), while
// a replay rewrites both streams from genesis.
type ResumeInfo struct {
	// Stream reports a service-mode checkpoint, whose run writes a stream
	// report when ResumeStreamWithMode is given one.
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
	_, spec, cur, err := loadCheckpoint(path)
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
// Each section is encoded by the durable's own reused walker for that
// section, so the returned Data slices are valid only until the next call:
// callers write them (snapshot.WriteFile is synchronous) or compare them,
// and keep nothing.
func (d *durable) imageSections() ([]snapshot.Section, error) {
	ids := imageSectionIDs(d.stream != nil)
	out := make([]snapshot.Section, 0, len(ids))
	for i, id := range ids {
		w := d.sectionWalker(i)
		w.Enc().Reset()
		if err := d.walkSection(id, w); err != nil {
			return nil, err
		}
		out = append(out, snapshot.Section{ID: id, Data: w.Enc().Data()})
	}
	return out, nil
}

// sectionWalker returns the encoding walker kept for the i-th image
// section, making it on first use. Its encoder's buffer survives Reset,
// so a run's later checkpoints encode without regrowing.
func (d *durable) sectionWalker(i int) *snapshot.Walker {
	for len(d.walks) <= i {
		d.walks = append(d.walks, snapshot.WalkEnc(snapshot.NewEnc()))
	}
	return d.walks[i]
}

// walkSection walks one image section of the live run. Decoding restores
// it into the freshly reconstructed run; the engine section re-enqueues
// the pending-event set (tagged events through restoreEvent) and leaves
// restore mode.
func (d *durable) walkSection(id string, w *snapshot.Walker) error {
	rs := d.rs
	switch id {
	case sectionImgEngine:
		return rs.cluster.Eng.WalkPending(w, d.watermark, d.restoreEvent)
	case sectionImgDFS:
		return rs.cluster.NN.WalkState(w)
	case sectionImgTracker:
		return rs.tracker.WalkState(w)
	case sectionImgCore:
		if err := walkPresence(w, "DARE manager", rs.mgr != nil); err != nil {
			return err
		}
		if rs.mgr != nil {
			if err := rs.mgr.WalkState(w); err != nil {
				return err
			}
		}
		if err := walkPresence(w, "Scarlett controller", rs.scar != nil); err != nil {
			return err
		}
		if rs.scar != nil {
			return rs.scar.WalkState(w)
		}
		return nil
	case sectionImgStream:
		snapshot.Int(w, &d.stream.nextWindow)
		return d.stream.src.WalkState(w)
	case sectionImgCounts:
		counts := rs.cluster.Bus.Counts()
		n := uint32(len(counts))
		w.U32(&n)
		if int(n) != len(counts) {
			return fmt.Errorf("runner: checkpoint image counts %d event kinds, this build has %d", n, len(counts))
		}
		for i := range counts {
			w.U64(&counts[i])
		}
		if w.Decoding() && w.Err() == nil {
			rs.cluster.Bus.RestoreCounts(counts)
		}
		return w.Err()
	}
	return fmt.Errorf("runner: unknown image section %q", id)
}

// walkPresence walks whether the run has an optional layer; the rebuilt
// run must agree with the image.
func walkPresence(w *snapshot.Walker, layer string, present bool) error {
	image := present
	w.Bool(&image)
	if image != present {
		return fmt.Errorf("runner: checkpoint image and rebuilt run disagree on the %s (image %v, run %v)", layer, image, present)
	}
	return nil
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

	eng.BeginRestore(cur.Now, cur.Seq, cur.Processed)
	// The engine section decodes after the layers: its tagged events
	// resolve into their restored state (jobs, pending announces).
	for _, id := range [...]string{sectionImgDFS, sectionImgTracker, sectionImgCore, sectionImgStream, sectionImgEngine, sectionImgCounts} {
		if id == sectionImgStream && d.stream == nil {
			continue
		}
		data, _ := r.f.Section(id) // presence checked by decodeCheckpoint
		dec := snapshot.NewDec(data)
		if err := d.walkSection(id, snapshot.WalkDec(dec)); err != nil {
			return fmt.Errorf("runner: restoring checkpoint section %q: %w", id, err)
		}
		if err := dec.Finish(); err != nil {
			return fmt.Errorf("runner: checkpoint section %q: %w", id, err)
		}
	}
	if rs.rec != nil && d.cw != nil {
		// The recorder was muted through reconstruction (those events are
		// the prefix the original process already wrote); arm the real
		// sink so only post-cut events reach it.
		rs.rec.RestoreSink(d.cw)
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
// dispatching on the layer that owns the kind range, which walks the
// payload into the event's tag.
func (d *durable) restoreEvent(kind uint16, when sim.Time, seq uint64, payload *snapshot.Dec) error {
	eng := d.rs.cluster.Eng
	// One walker serves every event: a layer walks the payload through
	// its tag's interface, which would move a walker per event to the
	// heap.
	d.tagWalk = *snapshot.WalkDec(payload)
	w := &d.tagWalk
	switch {
	case kind >= 1 && kind < 64:
		tag, fn, err := d.rs.tracker.DecodeEvent(kind, w)
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
			tag, fn, err = d.rs.mgr.DecodeEvent(kind, w)
		case d.rs.scar != nil:
			tag, fn, err = d.rs.scar.DecodeEvent(kind, w)
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
