package sim

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"dare/internal/snapshot"
)

// State-mode checkpointing of the pending-event set.
//
// Engine events are closures, which cannot be serialized directly. The
// state image instead exploits that run construction is deterministic:
// every event scheduled before the first drive ("genesis events" — batch
// arrival deferrals, churn/chaos/outage injections, initial ticker
// events) is recreated with the identical (when, seq) coordinates when
// the run is rebuilt at restore. The image therefore splits the pending
// set three ways:
//
//   - genesis events (seq below the watermark, no tag): stored as bare
//     seq references; restore keeps the reconstructed event and drops
//     the rest (they already fired or were canceled in the original);
//   - owned events (tag == Owned): skipped here; the owning component
//     (Cohort, the tracker's in-flight task records, the stream
//     driver) serializes the (when, seq) pair plus whatever context its
//     closure needs, and re-enqueues at decode;
//   - tagged events (any other tag): stored as (kind, when, seq,
//     payload); the layer that created the tag rebuilds the closure from
//     the payload at decode.
//
// A runtime-created event with no tag is not serializable: WalkPending
// returns an UntaggedEventError and the checkpoint write fails.

// EventTag makes a runtime-created event serializable. Implementations
// live in the layer that schedules the event; TagKind returns a kind
// code unique across the whole simulator (the runner's decode dispatch
// assigns kind ranges per layer).
type EventTag interface {
	TagKind() uint16
	// WalkTag walks the payload: encoding writes it, decoding fills a
	// zero tag of this kind from it.
	WalkTag(w *snapshot.Walker)
}

// Owned is the sentinel tag for events whose owner serializes them
// itself (tickers, cohorts, in-flight task completions).
var Owned EventTag = ownedTag{}

type ownedTag struct{}

func (ownedTag) TagKind() uint16            { return 0 }
func (ownedTag) WalkTag(w *snapshot.Walker) {}

// UntaggedEventError reports a pending runtime-created event that carries
// no tag and therefore cannot ride a state image.
type UntaggedEventError struct {
	When Time
	Seq  uint64
}

func (e *UntaggedEventError) Error() string {
	return fmt.Sprintf("sim: pending event (when=%v, seq=%d) was created after genesis and carries no state tag", e.When, e.Seq)
}

// Seq reports the sequence number stamped on the event, for owners that
// serialize (when, seq) coordinates themselves (When is in engine.go).
func (ev *Event) Seq() uint64 { return ev.seq }

// ScheduleTag is Schedule with a state tag attached to the returned
// handle. Owners of handle-retaining runtime events (the tracker's
// in-flight task completions) mark them Owned so WalkPending skips
// them and the owner serializes the coordinates itself.
func (e *Engine) ScheduleTag(delay Time, tag EventTag, fn func()) *Event {
	ev := e.Schedule(delay, fn)
	ev.tag = tag
	return ev
}

// DeferTag is Defer with a state tag attached to the pooled event.
func (e *Engine) DeferTag(delay Time, tag EventTag, fn func()) {
	e.DeferAtTag(e.now+delay, tag, fn)
}

// DeferAtTag is DeferAt with a state tag attached to the pooled event.
func (e *Engine) DeferAtTag(when Time, tag EventTag, fn func()) {
	e.deferAt(when, fn, tag)
}

// WalkPending walks the live pending set, split the three ways this
// file's opening comment describes, watermark being the genesis bound.
// Encoding visits it in (when, seq) order, so identical state always
// encodes to identical bytes. Decoding runs in restore mode
// (BeginRestore), hands each tagged record to restore, which must rebuild
// the closure and call RestoreEvent with the same coordinates, and ends
// with FinishRestore.
func (e *Engine) WalkPending(w *snapshot.Walker, watermark uint64, restore func(kind uint16, when Time, seq uint64, payload *snapshot.Dec) error) error {
	var genesis []uint64
	var tagged []*Event
	if !w.Decoding() {
		var evs []*Event
		e.q.each(func(ev *Event) {
			if !ev.canceled && ev.tag != Owned {
				evs = append(evs, ev)
			}
		})
		sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
		for _, ev := range evs {
			switch {
			case ev.tag != nil:
				tagged = append(tagged, ev)
			case ev.seq < watermark:
				genesis = append(genesis, ev.seq)
			default:
				return &UntaggedEventError{When: ev.when, Seq: ev.seq}
			}
		}
	}
	snapshot.Len(w, &genesis, 8)
	for i := range genesis {
		w.U64(&genesis[i])
		if w.Decoding() {
			if err := e.KeepGenesis(genesis[i]); err != nil {
				return cmp.Or(w.Err(), err)
			}
		}
	}
	n := len(tagged)
	w.Count(&n, 8)
	for i := range n {
		var kind uint16
		var when Time
		var seq uint64
		if !w.Decoding() {
			kind, when, seq = tagged[i].tag.TagKind(), tagged[i].when, tagged[i].seq
		}
		w.U16(&kind)
		w.F64(&when)
		w.U64(&seq)
		if !w.Decoding() {
			if e.payload == nil {
				e.payload = snapshot.WalkEnc(snapshot.NewEnc())
			}
			e.payload.Enc().Reset()
			tagged[i].tag.WalkTag(e.payload)
			w.Enc().Blob(e.payload.Enc().Data())
			continue
		}
		pd := snapshot.NewDec(w.Dec().Blob())
		if err := w.Err(); err != nil {
			return err
		}
		if err := e.checkRestoreAt(when); err != nil {
			return fmt.Errorf("sim: tag kind %d: %w", kind, err)
		}
		if err := restore(kind, when, seq, pd); err != nil {
			return err
		}
		if err := pd.Finish(); err != nil {
			return fmt.Errorf("sim: tag kind %d payload: %w", kind, err)
		}
	}
	if w.Decoding() && w.Err() == nil {
		e.FinishRestore()
	}
	return w.Err()
}

// checkRestoreAt rejects an image instant the pending set cannot hold: NaN
// (time needs a total order) or one before the image clock.
func (e *Engine) checkRestoreAt(when Time) error {
	if math.IsNaN(when) || when < e.now {
		return fmt.Errorf("%w: pending event at %v, image clock %v", snapshot.ErrFormat, when, e.now)
	}
	return nil
}

// BeginRestore switches the engine into restore mode: every pending
// event is popped into a side map keyed by seq (canceled ones are
// dropped), the queue is emptied, and the clock/sequence/processed
// counters jump to the checkpoint cursor. Between BeginRestore and
// FinishRestore the layers re-enqueue exactly the events the state image
// names, via KeepGenesis / RestoreAt / RestoreEvent.
func (e *Engine) BeginRestore(now Time, seq, processed uint64) {
	e.restoreMap = make(map[uint64]*Event, e.q.len())
	for {
		ev := e.q.pop()
		if ev == nil {
			break
		}
		ev.inQueue = false
		if ev.canceled {
			continue
		}
		e.restoreMap[ev.seq] = ev
	}
	e.canceledPending = 0
	e.now = now
	e.seq = seq
	e.processed = processed
}

// KeepGenesis re-enqueues the reconstructed genesis event with the given
// seq, preserving its coordinates and closure.
func (e *Engine) KeepGenesis(seq uint64) error {
	ev, ok := e.restoreMap[seq]
	if !ok {
		return fmt.Errorf("sim: state image references genesis event seq %d, but reconstruction did not schedule it", seq)
	}
	delete(e.restoreMap, seq)
	ev.inQueue = true
	e.q.push(ev)
	return nil
}

// RestoreAt enqueues an owner-held event at exact checkpoint coordinates,
// bypassing sequence stamping, and returns it. The owner is responsible
// for ev's callback being the one the original event carried; a nil ev
// (reconstruction did not create the struct, e.g. a ticker that only
// started mid-run) gets a fresh Owned handle for fn.
func (e *Engine) RestoreAt(ev *Event, fn func(), when Time, seq uint64) *Event {
	if ev == nil {
		ev = &Event{fn: fn, tag: Owned}
	}
	if ev.inQueue {
		panic("sim: RestoreAt of a still-pending event")
	}
	ev.when = when
	ev.seq = seq
	ev.canceled = false
	ev.inQueue = true
	e.q.push(ev)
	return ev
}

// RestoreEvent enqueues a rebuilt pooled event at exact checkpoint
// coordinates, re-attaching its tag so the next checkpoint can encode it
// again.
func (e *Engine) RestoreEvent(when Time, seq uint64, tag EventTag, fn func()) {
	ev := &Event{when: when, seq: seq, fn: fn, tag: tag, pooled: true, inQueue: true}
	e.q.push(ev)
}

// FinishRestore drops every reconstructed genesis event the state image
// did not keep — in the original run they had already fired or been
// canceled — and leaves restore mode.
func (e *Engine) FinishRestore() {
	for _, ev := range e.restoreMap {
		if !ev.inQueue {
			e.release(ev)
		}
	}
	e.restoreMap = nil
}

// WalkState walks every cohort's section in creation order (see
// cohort.walkState).
func (ct *CohortTicker) WalkState(w *snapshot.Walker) error {
	for i := range ct.cohorts {
		if err := ct.cohorts[i].walkState(w); err != nil {
			return err
		}
	}
	return nil
}

// walkState walks one cohort: grid position, pending event, and the slot
// table in activation order (tombstones included — sweep order is part
// of the determinism contract). A live slot is its member ID and joined
// time. Decoding accepts only IDs of the ticker's members that belong to
// this cohort, each at most once; it rebuilds the members' slot indices,
// the population counters and lastJoined from the slots, and re-enqueues
// the pending tick, which names the cohort and so rides the pending set's
// lane.
func (co *cohort) walkState(w *snapshot.Walker) error {
	ct := co.ct
	w.Bool(&co.started)
	w.Bool(&co.running)
	w.F64(&co.anchor)
	w.U64(&co.next)
	var seq uint64
	if co.running {
		seq = co.ev.seq
		w.U64(&seq)
	}
	n := len(co.slots)
	w.Count(&n, 1)
	if w.Decoding() {
		if err := w.Err(); err != nil {
			return err
		}
		// Detach the members reconstruction activated before
		// overwriting the slot table.
		for _, s := range co.slots {
			if s.id != tombstone {
				ct.slot[s.id] = -1
			}
		}
		co.slots = append(co.slots[:0], make([]cohortSlot, n)...)
	}
	for i := range co.slots {
		s := &co.slots[i]
		live := s.id != tombstone
		w.Bool(&live)
		if !live {
			s.id = tombstone
			continue
		}
		id := int64(s.id)
		w.I64(&id)
		if w.Decoding() {
			if err := w.Err(); err != nil {
				return err
			}
			if id < 0 || id >= int64(len(ct.slot)) {
				return fmt.Errorf("sim: cohort state names unknown member %d", id)
			}
			if &ct.cohorts[ct.cohortOf[id]] != co || ct.slot[id] >= 0 {
				return fmt.Errorf("sim: cohort state names member %d outside its cohort or twice", id)
			}
			s.id = int32(id)
			ct.slot[id] = int32(i)
		}
		w.F64(&s.joined)
	}
	if !w.Decoding() {
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	co.active, co.dead = 0, 0
	co.lastJoined = math.Inf(-1)
	for _, s := range co.slots {
		if s.id == tombstone {
			co.dead++
			continue
		}
		co.active++
		co.lastJoined = math.Max(co.lastJoined, s.joined)
	}
	if co.running {
		when := gridTime(co.anchor, ct.period, co.next)
		if err := ct.eng.checkRestoreAt(when); err != nil {
			return fmt.Errorf("sim: cohort tick: %w", err)
		}
		co.ev = ct.eng.RestoreAt(co.ev, nil, when, seq)
	}
	return nil
}
