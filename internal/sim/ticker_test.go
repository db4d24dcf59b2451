package sim

import "dare/internal/snapshot"

// Ticker fires one callback at a fixed period: the per-node heartbeat
// stream the simulator used before heartbeats were coalesced into cohorts.
// It is the reference a singleton cohort must match exactly
// (TestCohortMatchesPerNodeTickers), and the engine fast-path tests drive
// it. A Ticker is created stopped; call Start to begin.
//
// Each tick re-enqueues its own event struct in place
// (Engine.RescheduleAt) instead of allocating a fresh event, and a stopped
// ticker's canceled event is reclaimed by the engine's compaction sweep
// rather than lingering until its timestamp is reached.
//
// Tick times sit on an absolute grid: anchor + k·period for integer k ≥ 1,
// where anchor is fixed at Start time (now + phase). Computing each tick
// analytically rather than as now + period keeps long ticker streams free
// of accumulated floating-point drift, which is what lets CohortTicker
// fire many members from one shared event at bit-identical times to the
// per-ticker schedule.
type Ticker struct {
	eng    *Engine
	period Time
	fn     func()
	ev     *Event
	active bool
	// anchor is the grid origin (start time + phase); next is the index k
	// of the next scheduled tick on that grid. started records that Start
	// ran at least once, so Resume has a grid to land on.
	anchor  Time
	next    uint64
	started bool
}

// NewTicker creates a ticker on eng with the given period and callback.
// Period must be positive.
func NewTicker(eng *Engine, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{eng: eng, period: period, fn: fn}
}

// Start begins ticking on a fresh grid anchored at now + phase; the first
// tick fires one period after the anchor. Distinct phase offsets give
// distinct grids, de-synchronizing many nodes' heartbeats as real clusters
// do (see TestTickerDistinctPhasesNeverCollide). Starting an active ticker
// is a no-op.
func (t *Ticker) Start(phase Time) {
	if t.active {
		return
	}
	t.active = true
	t.started = true
	t.anchor = t.eng.Now() + phase
	t.next = 1
	t.scheduleNext()
}

// Resume restarts a stopped ticker on its original grid: the next tick is
// the first grid instant strictly after now, not one full period away.
// Node recovery uses it so a rejoining node falls back into the cluster's
// existing heartbeat cadence — the property that keeps cohort membership
// splices equivalent to independent per-node tickers. Resuming an active
// or never-started ticker is a no-op.
func (t *Ticker) Resume() {
	if t.active || !t.started {
		return
	}
	t.active = true
	t.next = nextGridIndex(t.anchor, t.period, t.eng.Now())
	t.scheduleNext()
}

// scheduleNext enqueues the tick at grid index t.next, reusing the event
// struct when the engine no longer owns it.
func (t *Ticker) scheduleNext() {
	when := gridTime(t.anchor, t.period, t.next)
	if t.ev != nil && !t.ev.inQueue {
		// The previous event already fired or was swept: reuse the struct.
		t.eng.RescheduleAt(t.ev, when)
		return
	}
	// First start, or the previous Stop's canceled event is still queued
	// awaiting lazy discard: a fresh struct keeps the two from aliasing.
	t.ev = t.eng.At(when, t.tick)
	t.ev.tag = Owned
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	if !t.active {
		return
	}
	t.active = false
	t.eng.Cancel(t.ev)
}

// Active reports whether the ticker is running.
func (t *Ticker) Active() bool { return t.active }

func (t *Ticker) tick() {
	if !t.active {
		return
	}
	t.fn()
	// fn may have stopped us, or stopped and restarted us (in which case
	// the restart already queued the next tick).
	if t.active && !t.ev.inQueue {
		t.next++
		t.eng.RescheduleAt(t.ev, gridTime(t.anchor, t.period, t.next))
	}
}

// EncodeState serializes the ticker's grid position and pending tick.
func (t *Ticker) EncodeState(enc *snapshot.Enc) {
	enc.Bool(t.started)
	enc.Bool(t.active)
	enc.F64(t.anchor)
	enc.U64(t.next)
	if t.active {
		// An active ticker always has its event pending; when is derived
		// from the grid, so only the seq needs recording.
		enc.U64(t.ev.seq)
	}
}

// DecodeState restores the ticker's grid position and re-enqueues its
// pending tick at exact coordinates.
func (t *Ticker) DecodeState(dec *snapshot.Dec) error {
	t.started = dec.Bool()
	t.active = dec.Bool()
	t.anchor = dec.F64()
	t.next = dec.U64()
	if t.active {
		seq := dec.U64()
		if t.ev == nil {
			t.ev = t.eng.RestoreHandle(t.tick)
		}
		t.eng.RestoreAt(t.ev, gridTime(t.anchor, t.period, t.next), seq)
	}
	return dec.Err()
}
