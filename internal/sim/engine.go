// Package sim implements a deterministic discrete-event simulation engine:
// a pending-event set with FIFO tie-breaking on equal timestamps, backed by
// a FIFO lane for cohort heartbeat ticks beside a 4-ary heap for every
// other event. It is the substrate on which the HDFS model, the MapReduce
// model, the schedulers, and DARE itself run.
//
// Time is a float64 number of seconds since simulation start. Determinism
// is guaranteed: events at the same timestamp fire in the order they were
// scheduled, and nothing in the engine consults wall-clock time or global
// randomness. The lane and heap together fire the exact (when, seq)
// schedule of a plain binary heap, bit for bit; the tests keep that heap
// as the reference.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"dare/internal/snapshot"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback. The zero Event is invalid; create events
// only through Engine.Schedule/At.
type Event struct {
	when     Time
	seq      uint64
	fn       func()
	canceled bool
	// pooled events were created through Defer/DeferAt: no handle ever
	// escaped, so the engine may recycle the struct after the callback
	// runs. Handle-returning Schedule/At events are never pooled — a
	// retained handle could Cancel a recycled event and corrupt an
	// unrelated callback.
	pooled bool
	// inQueue reports whether the event currently sits in the pending set.
	// Cancel uses it to keep the canceled-pending count exact, and
	// RescheduleAt uses it to refuse reuse of a struct the queue still owns.
	inQueue bool
	// lane marks a cohort tick: the pending set may keep it in its FIFO
	// lane instead of the heap (see laneQueue).
	lane bool
	// tag, when non-nil, makes a runtime-created event serializable for
	// state-mode checkpoints (see state.go): Owned events are serialized
	// by their owning component, tagged events by the tag itself, and
	// untagged events are assumed to be genesis events recreated by
	// deterministic reconstruction.
	tag EventTag
}

// When reports the time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// compactFloor is the minimum number of canceled-pending events before the
// engine considers a compaction sweep; below it, lazy discarding is cheaper
// than sweeping.
const compactFloor = 64

// Engine is the simulation executive. It is not safe for concurrent use;
// the simulated world is single-threaded by design (the standard structure
// for reproducible event-driven simulation).
type Engine struct {
	now     Time
	seq     uint64
	q       pendingQueue
	stopped bool
	// Processed counts events executed; useful for progress reporting and
	// runaway detection in tests.
	processed uint64
	// free holds recycled pooled events (see Event.pooled).
	free []*Event
	// canceledPending counts canceled events still sitting in the queue.
	// When they exceed half the pending set (past compactFloor), the queue
	// is compacted, so heartbeat start/stop churn cannot grow memory without
	// bound.
	canceledPending int
	// intr, when non-nil, is polled between events: setting it makes the
	// run loop return with RunInterrupted at the next event boundary. It
	// is the one concession to the outside world (signal handlers) the
	// otherwise single-threaded engine makes; nil (the default) keeps the
	// loop free of atomic loads.
	intr *atomic.Bool
	// restoreMap holds popped pending events keyed by seq between
	// BeginRestore and FinishRestore (see state.go).
	restoreMap map[uint64]*Event
	// payload walks one tag payload at a time in WalkPending; it is
	// kept so that later checkpoints reuse its buffer.
	payload *snapshot.Walker
}

// RunOutcome reports why a bounded run loop returned.
type RunOutcome uint8

const (
	// RunDrained: the queue ran out of events at or before the time bound
	// (the clock was advanced to the bound when finite).
	RunDrained RunOutcome = iota
	// RunStopped: Stop was called by an event callback.
	RunStopped
	// RunBudget: the processed-event count reached the caller's limit; the
	// clock rests at the last fired event. This is the checkpoint
	// boundary — between two events, never inside one.
	RunBudget
	// RunInterrupted: the interrupt flag installed by SetInterrupt was
	// observed between events.
	RunInterrupted
)

func (o RunOutcome) String() string {
	switch o {
	case RunDrained:
		return "drained"
	case RunStopped:
		return "stopped"
	case RunBudget:
		return "budget"
	case RunInterrupted:
		return "interrupted"
	}
	return fmt.Sprintf("RunOutcome(%d)", uint8(o))
}

// newQueue builds the pending-event set of every new engine: the lane
// queue. Tests swap in the reference heap queue through export_test.go.
var newQueue = newLaneQueue

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{q: newQueue()}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// enqueue stamps the next sequence number on ev and inserts it.
func (e *Engine) enqueue(ev *Event) {
	ev.seq = e.seq
	e.seq++
	ev.inQueue = true
	e.q.push(ev)
}

// Schedule runs fn after delay seconds of simulated time. A negative delay
// is a programming error and panics. It returns the event handle, which
// may be used to cancel the callback before it fires.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time when. Scheduling in the past or at NaN
// panics: the simulated world cannot rewrite history, and the pending set
// needs a total order on time.
func (e *Engine) At(when Time, fn func()) *Event {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := &Event{when: when, fn: fn}
	e.enqueue(ev)
	return ev
}

// RescheduleAt re-enqueues a previously fired event handle to run at time
// when, reusing the struct and its callback. This is the periodic fast
// path: a self-rescheduling cohort event cycles through one struct with no
// per-tick allocation and no lazy-cancel garbage, and the absolute
// timestamp keeps it on an analytic grid (anchor + k·period) instead of
// accumulating now+period floating-point drift tick after tick. It panics
// if the event is still pending, was created by Defer (the pool owns those
// structs), or when lies before now.
func (e *Engine) RescheduleAt(ev *Event, when Time) {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: rescheduling at %v before now %v", when, e.now))
	}
	if ev == nil || ev.fn == nil {
		panic("sim: RescheduleAt of an invalid event")
	}
	if ev.pooled {
		panic("sim: RescheduleAt of a pooled (Defer) event")
	}
	if ev.inQueue {
		panic("sim: RescheduleAt of a still-pending event")
	}
	ev.when = when
	ev.canceled = false
	e.enqueue(ev)
}

// Defer is Schedule without the returned handle, for callers that only
// need fire-and-forget scheduling (e.g. the DARE manager's DeferFunc).
// Because no handle escapes, the event struct comes from (and returns to)
// a free list, so the hottest schedulers allocate nothing per event.
func (e *Engine) Defer(delay Time, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	e.DeferAt(e.now+delay, fn)
}

// DeferAt is At without the returned handle; like Defer it draws the event
// from the free list.
func (e *Engine) DeferAt(when Time, fn func()) {
	e.deferAt(when, fn, nil)
}

func (e *Engine) deferAt(when Time, fn func(), tag EventTag) {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.when, ev.fn, ev.canceled = when, fn, false
	} else {
		ev = &Event{when: when, fn: fn, pooled: true}
	}
	ev.tag = tag
	e.enqueue(ev)
}

// release returns a popped pooled event to the free list. The callback has
// already been captured by the caller, so the struct may be reused by the
// very next DeferAt — including one scheduled from inside the callback.
func (e *Engine) release(ev *Event) {
	if ev.pooled {
		ev.fn = nil
		ev.tag = nil
		e.free = append(e.free, ev)
	}
}

// Cancel marks ev so it will not fire. Canceling an already-fired or
// already-canceled event is a no-op. The event stays queued and is
// discarded lazily when popped — Cancel itself is O(1) — but the engine
// keeps an exact count of canceled events still pending, and once they
// outnumber the live ones (past a floor) the queue is swept in one pass.
// That bounds memory under heavy cancel workloads (heartbeat flapping,
// speculative-task cancellation) where lazy discarding alone would let
// garbage accumulate until popped.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if !ev.inQueue {
		return
	}
	e.canceledPending++
	if e.canceledPending >= compactFloor && e.canceledPending*2 > e.q.len() {
		e.canceledPending -= e.q.compact()
	}
}

// Stop makes the run loop return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil executes events with timestamps <= until, then advances the
// clock to min(until, +inf-of-empty-queue). It returns the clock value on
// exit. If Stop was requested, execution halts immediately after the
// current event.
func (e *Engine) RunUntil(until Time) Time {
	e.RunUntilOutcome(until, math.MaxUint64)
	return e.now
}

// RunUntilOutcome is RunUntil with a processed-event budget: the loop
// additionally returns (without advancing the clock) as soon as the
// engine's lifetime processed count reaches stopAt. The budget check sits
// between events, so a RunBudget return is always a clean checkpoint
// boundary: the previous event has fully run, the next has not started.
// Canceled events discarded by the loop do not count against the budget
// (they never counted as processed). The returned outcome reports why the
// loop exited; RunUntil(x) is RunUntilOutcome(x, MaxUint64) with the
// outcome ignored.
func (e *Engine) RunUntilOutcome(until Time, stopAt uint64) RunOutcome {
	e.stopped = false
	outcome := RunDrained
	for {
		if e.stopped {
			outcome = RunStopped
			break
		}
		if e.processed >= stopAt {
			outcome = RunBudget
			break
		}
		if e.intr != nil && e.intr.Load() {
			outcome = RunInterrupted
			break
		}
		next := e.q.peek()
		if next == nil || next.when > until {
			break
		}
		e.q.pop()
		next.inQueue = false
		if next.canceled {
			e.canceledPending--
			e.release(next)
			continue
		}
		e.now = next.when
		e.processed++
		fn := next.fn
		e.release(next)
		fn()
	}
	if outcome == RunDrained && !math.IsInf(until, 1) && until > e.now {
		e.now = until
	}
	return outcome
}

// SetInterrupt installs flag as the engine's interrupt line: when a
// concurrent goroutine (a signal handler) sets it, the run loop returns
// RunInterrupted at the next boundary between events. Pass nil to
// uninstall. The flag is polled, never cleared, by the engine.
func (e *Engine) SetInterrupt(flag *atomic.Bool) { e.intr = flag }

// Seq reports the next sequence number the engine will stamp — with Now
// and Processed, the engine-level coordinates a checkpoint cursor records.
func (e *Engine) Seq() uint64 { return e.seq }
