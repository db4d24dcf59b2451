package sim

import "math"

// CohortTicker coalesces many same-period periodic callbacks into one
// engine event per cohort per period. Where N independent Tickers cost N
// pending events every interval, a CohortTicker costs one per
// cohort: the event fires and sweeps every live member's callback in
// membership order. With heartbeats at ~83% of all bus events, this is
// the difference between simulating 20k nodes and not.
//
// Equivalence to per-node tickers is exact, not approximate, under the
// contract below. A cohort's members all share one phase offset, so their
// per-node tickers would fire at identical instants anyway; the engine
// breaks those ties by seq, which is activation order. The cohort sweep
// reproduces that order directly:
//
//   - initial Adds (all at one instant, in node order) append in call
//     order — matching the per-node seq order of their first events;
//   - Stop tombstones the member's slot in O(1), exactly as a canceled
//     per-node event simply stops firing;
//   - Resume appends the member at the tail in O(1): a resumed per-node
//     ticker's fresh event is scheduled later than the surviving members'
//     in-flight events, so it fires after all of them at every subsequent
//     shared instant.
//
// Tick instants come from absolute grid arithmetic (gridTime/
// nextGridIndex), the same the per-node reference Ticker of the tests
// uses, so per-node and cohort schedules are bit-identical, not merely
// close.
//
// The ordering contract assumes membership changes arrive from ordinary
// simulation events between grid instants (failures, recoveries, churn,
// chaos — all continuous-time), not from inside a sweep callback and not
// at the exact float64 instant of a cohort tick. If a Resume does land
// exactly on a tick instant before the sweep runs, the joined-time guard
// keeps the member silent for that sweep — a per-node ticker resumed at
// time T never fires at T either — so no spurious event is ever
// published.
//
// An owner whose members would all do nothing but count themselves can
// install an IdleGate: while the gate holds at a tick, the sweep is
// replaced by one call reporting how many members it would have run, so
// an idle period costs O(cohorts), not O(members). The cohort's engine
// event fires and re-arms exactly as before, so the engine's event count
// and sequence numbers do not move.
type CohortTicker struct {
	eng     *Engine
	period  Time
	cohorts []*Cohort
	gate    IdleGate // nil: every tick sweeps
}

// IdleGate lets a cohort tick skip its member loop. At each tick, when
// Idle holds, the cohort calls Skipped(n) with n the number of members
// the sweep would have run (live members not joined at this instant)
// instead of running them. The owner guarantees that, while Idle holds,
// running those n members would have had no effect beyond what
// Skipped(n) does, and that no member callback can make Idle flip
// mid-sweep.
type IdleGate interface {
	Idle() bool
	Skipped(n int)
}

// NewCohortTicker creates a coalescing ticker group with the given shared
// period. Period must be positive.
func NewCohortTicker(eng *Engine, period Time) *CohortTicker {
	if period <= 0 {
		panic("sim: cohort ticker period must be positive")
	}
	return &CohortTicker{eng: eng, period: period}
}

// SetIdleGate installs g on every cohort of the group; nil removes it.
func (ct *CohortTicker) SetIdleGate(g IdleGate) { ct.gate = g }

// NewCohort creates an empty cohort whose grid is offset by phase from the
// instant of its first Add. All members of the cohort tick at the same
// instants; distinct cohorts should use distinct phases (see
// TestTickerDistinctPhasesNeverCollide for why they then never collide).
func (ct *CohortTicker) NewCohort(phase Time) *Cohort {
	co := &Cohort{ct: ct, phase: phase}
	ct.cohorts = append(ct.cohorts, co)
	return co
}

// cohortCompactFloor matches the engine's compactFloor: below this many
// tombstoned slots a cohort tolerates the garbage; past it, once
// tombstones outnumber live members, the slice is compacted in one pass.
// This bounds memory under unbounded Stop/Resume flapping (the cohort
// analogue of TestTickerFlapBoundsPending).
const cohortCompactFloor = 64

// Cohort is one coalesced tick stream: a set of member callbacks that all
// fire at the same grid instants, swept by a single engine event.
type Cohort struct {
	ct    *CohortTicker
	phase Time

	// members holds live members in activation order, with nil tombstones
	// where members stopped; active and dead count the two populations.
	members []*CohortMember
	active  int
	dead    int

	// Grid state, mirroring Ticker: anchor is firstAddTime + phase, next
	// the grid index of the pending tick. started latches after the first
	// Add so later resumes rejoin the original grid.
	anchor  Time
	next    uint64
	started bool

	// lastJoined is the latest activation time of any member; every live
	// member joined at or before it. It makes the idle gate's count O(1)
	// whenever lastJoined is before the tick instant. Derived state:
	// decoding a cohort image rebuilds it from the members' joined times.
	lastJoined Time

	ev       *Event
	running  bool // a non-canceled cohort event is pending
	sweeping bool // inside tick(); defers compaction
}

// CohortMember is one callback's handle within a cohort, with O(1) Stop
// and Resume. It is the cohort-mode counterpart of a per-node Ticker.
type CohortMember struct {
	co *Cohort
	fn func()
	// slot is the member's index in co.members, or -1 while stopped.
	slot int
	// joined is the time of the most recent activation; a sweep at exactly
	// this instant skips the member (a per-node ticker resumed at T never
	// fires at T).
	joined Time
}

// Add registers fn as a new live member and returns its handle. The first
// Add anchors the cohort's grid at now + phase, exactly as Ticker.Start
// would for each member individually.
func (co *Cohort) Add(fn func()) *CohortMember {
	if fn == nil {
		panic("sim: nil cohort member function")
	}
	m := &CohortMember{co: co, fn: fn, slot: -1}
	m.activate()
	return m
}

// Stop deactivates the member in O(1): its slot becomes a tombstone that
// sweeps skip and compaction eventually reclaims. Stopping the last live
// member cancels the cohort's pending event. Stopping a stopped member is
// a no-op.
func (m *CohortMember) Stop() {
	if m.slot < 0 {
		return
	}
	co := m.co
	co.members[m.slot] = nil
	m.slot = -1
	co.active--
	co.dead++
	if co.active == 0 && co.running {
		co.ct.eng.Cancel(co.ev)
		co.running = false
	}
	co.maybeCompact()
}

// Resume reactivates a stopped member in O(1), appending it after every
// currently live member: its next tick lands on the cohort's original
// grid, after the members that never stopped — the same instant and the
// same relative order a freshly rescheduled per-node ticker would get.
// Resuming a live member is a no-op.
func (m *CohortMember) Resume() {
	if m.slot >= 0 {
		return
	}
	m.activate()
}

// activate appends m to the member list and ensures the cohort event is
// pending.
func (m *CohortMember) activate() {
	co := m.co
	m.slot = len(co.members)
	m.joined = co.ct.eng.Now()
	co.lastJoined = m.joined
	co.members = append(co.members, m)
	co.active++
	if !co.started {
		co.started = true
		co.anchor = co.ct.eng.Now() + co.phase
		co.next = 1
		co.scheduleNext()
		return
	}
	if !co.running {
		co.next = nextGridIndex(co.anchor, co.ct.period, co.ct.eng.Now())
		co.scheduleNext()
	}
}

// scheduleNext enqueues the cohort tick at grid index co.next, reusing the
// event struct when the engine no longer owns it. A canceled event still
// queued awaiting lazy discard gets a fresh struct instead, so the two
// never alias. Every cohort tick is marked for the pending set's FIFO
// lane.
func (co *Cohort) scheduleNext() {
	if co.ev == nil || co.ev.inQueue {
		co.ev = &Event{fn: co.tick, tag: Owned, lane: true}
	}
	co.ct.eng.RescheduleAt(co.ev, gridTime(co.anchor, co.ct.period, co.next))
	co.running = true
}

// tick sweeps every live member in activation order, then re-arms on the
// next grid instant. When the idle gate holds, it reports the members the
// sweep would have run instead of running them.
func (co *Cohort) tick() {
	co.running = false
	if co.active == 0 {
		return
	}
	now := co.ct.eng.Now()
	if g := co.ct.gate; g != nil && g.Idle() {
		g.Skipped(co.due(now))
	} else {
		co.sweep(now)
	}
	if co.active > 0 && !co.running {
		co.next++
		co.scheduleNext()
	}
}

// sweep runs every live member not joined at now, in activation order.
func (co *Cohort) sweep(now Time) {
	co.sweeping = true
	// Members appended during the sweep (a callback resuming another
	// node) extend co.members; the index walk reaches them, and the
	// joined-time guard keeps them silent until the next instant.
	for i := 0; i < len(co.members); i++ {
		m := co.members[i]
		if m == nil || m.joined == now {
			continue
		}
		m.fn()
	}
	co.sweeping = false
	co.maybeCompact()
}

// due counts the live members a sweep at now would run: all of them, less
// any joined at this very instant. Only a Resume landing exactly on the
// tick instant makes the count walk the slot table.
func (co *Cohort) due(now Time) int {
	if co.lastJoined != now {
		return co.active
	}
	n := 0
	for _, m := range co.members {
		if m != nil && m.joined != now {
			n++
		}
	}
	return n
}

// maybeCompact rebuilds the member slice without tombstones once they
// dominate, preserving activation order and repairing slot indices.
// Deferred while a sweep is walking the slice.
func (co *Cohort) maybeCompact() {
	if co.sweeping || co.dead < cohortCompactFloor || co.dead <= co.active {
		return
	}
	live := co.members[:0]
	for _, m := range co.members {
		if m == nil {
			continue
		}
		m.slot = len(live)
		live = append(live, m)
	}
	// Clear the reclaimed tail so stopped members don't linger reachable.
	for i := len(live); i < len(co.members); i++ {
		co.members[i] = nil
	}
	co.members = live
	co.dead = 0
}

// gridTime is the k-th tick instant of a grid rooted at anchor. It is the
// single definition of "when does tick k fire" shared by CohortTicker and
// the per-node reference Ticker of the tests: both compute
// anchor + period·k in this exact expression, so the two schedules agree
// bit for bit.
func gridTime(anchor, period Time, k uint64) Time {
	return anchor + period*float64(k)
}

// nextGridIndex finds the smallest k ≥ 1 with gridTime(anchor, period, k)
// strictly after now — the tick a resuming member must wait for. The
// closed-form estimate is refined by short walks in both directions so
// floating-point rounding in the division can never land a tick at or
// before now, nor skip the first eligible instant.
func nextGridIndex(anchor, period, now Time) uint64 {
	var k uint64 = 1
	if now > anchor+period {
		k = uint64(math.Floor((now - anchor) / period))
		if k < 1 {
			k = 1
		}
	}
	for k > 1 && gridTime(anchor, period, k-1) > now {
		k--
	}
	for gridTime(anchor, period, k) <= now {
		k++
	}
	return k
}
