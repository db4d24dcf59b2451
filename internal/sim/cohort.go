package sim

import (
	"fmt"
	"math"
)

// CohortTicker coalesces many same-period periodic members into one
// engine event per cohort per period. Where N independent Tickers cost N
// pending events every interval, a CohortTicker costs one per
// cohort: the event fires and sweeps every live member in membership
// order, calling the ticker's one member callback with each member's ID.
// With heartbeats at ~83% of all bus events, this is the difference
// between simulating 20k nodes and not.
//
// Members are addressed by an int ID in [0, n), n fixed when the ticker
// is built along with every cohort and each member's cohort. A cohort's
// slot table is a value slice of (member ID, joined time) pairs, and the
// ticker keeps each member's slot index and cohort in flat slices, so a
// member costs no allocation of its own: building a ticker for any n
// allocates a constant number of times, plus one bound tick callback per
// cohort.
//
// Equivalence to per-node tickers is exact, not approximate, under the
// contract below. A cohort's members all share one phase offset, so their
// per-node tickers would fire at identical instants anyway; the engine
// breaks those ties by seq, which is activation order. The cohort sweep
// reproduces that order directly:
//
//   - initial Adds (all at one instant, in ID order) append in call
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
	fn      func(member int)
	cohorts []cohort
	// slot[id] is member id's index in its cohort's slot table, or -1
	// while the member is stopped or not yet added; cohortOf[id] is the
	// index of its cohort. Compaction repairs slot.
	slot     []int32
	cohortOf []int32
	gate     IdleGate // nil: every tick sweeps
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

// NewCohortTicker builds a coalescing ticker group with the given shared
// period and every cohort at once: cohort c's grid is offset by phases[c]
// from the instant of its first Add, and member id belongs to cohort
// cohortOf[id]. fn runs once per live member per tick, with the member's
// ID. All members of a cohort tick at the same instants; distinct cohorts
// should use distinct phases (see TestTickerDistinctPhasesNeverCollide
// for why they then never collide). Period must be positive.
func NewCohortTicker(eng *Engine, period Time, phases []Time, cohortOf []int, fn func(member int)) *CohortTicker {
	if period <= 0 {
		panic("sim: cohort ticker period must be positive")
	}
	if fn == nil {
		panic("sim: nil cohort member function")
	}
	n := len(cohortOf)
	ct := &CohortTicker{
		eng:      eng,
		period:   period,
		fn:       fn,
		cohorts:  make([]cohort, len(phases)),
		slot:     make([]int32, n),
		cohortOf: make([]int32, n),
	}
	eng.q.reserveTicks(len(phases))
	sizes := make([]int, len(phases))
	for id, c := range cohortOf {
		if c < 0 || c >= len(phases) {
			panic(fmt.Sprintf("sim: member %d in cohort %d of %d", id, c, len(phases)))
		}
		ct.slot[id] = -1
		ct.cohortOf[id] = int32(c)
		sizes[c]++
	}
	// Every cohort's slot table is a window of one backing array, capped
	// at its member count: the initial Adds fill it in place, and only a
	// Resume past that (tombstones not yet compacted) regrows it alone.
	backing := make([]cohortSlot, n)
	off := 0
	for c := range ct.cohorts {
		co := &ct.cohorts[c]
		co.ct = ct
		co.phase = phases[c]
		co.slots = backing[off : off : off+sizes[c]]
		off += sizes[c]
		co.first = Event{cohort: co, tag: Owned}
		co.ev = &co.first
	}
	return ct
}

// SetIdleGate installs g on every cohort of the group; nil removes it.
func (ct *CohortTicker) SetIdleGate(g IdleGate) { ct.gate = g }

// Cohorts reports how many cohorts the group has.
func (ct *CohortTicker) Cohorts() int { return len(ct.cohorts) }

// cohortCompactFloor matches the engine's compactFloor: below this many
// tombstoned slots a cohort tolerates the garbage; past it, once
// tombstones outnumber live members, the slice is compacted in one pass.
// This bounds memory under unbounded Stop/Resume flapping (the cohort
// analogue of TestTickerFlapBoundsPending).
const cohortCompactFloor = 64

// tombstone is the member ID of a slot whose member stopped.
const tombstone = -1

// cohortSlot is one entry of a cohort's slot table: a member, or a
// tombstone where a member stopped. joined is the time of the member's
// most recent activation; a sweep at exactly this instant skips the
// member (a per-node ticker resumed at T never fires at T).
type cohortSlot struct {
	id     int32
	joined Time
}

// cohort is one coalesced tick stream: a set of members that all fire at
// the same grid instants, swept by a single engine event.
type cohort struct {
	ct    *CohortTicker
	phase Time

	// slots holds members in activation order, with tombstones where
	// members stopped; active and dead count the two populations.
	slots  []cohortSlot
	active int
	dead   int

	// Grid state, mirroring Ticker: anchor is firstAddTime + phase, next
	// the grid index of the pending tick. started latches after the first
	// Add so later resumes rejoin the original grid.
	anchor  Time
	next    uint64
	started bool

	// lastJoined is the latest activation time of any member; every live
	// member joined at or before it. It makes the idle gate's count O(1)
	// whenever lastJoined is before the tick instant. Derived state:
	// decoding a cohort image rebuilds it from the slots' joined times.
	lastJoined Time

	// ev is the cohort's tick event: first, until a canceled tick still
	// queued for lazy discard forces a fresh struct (scheduleNext).
	ev       *Event
	first    Event
	running  bool // a non-canceled cohort event is pending
	sweeping bool // inside tick(); defers compaction
}

// Add activates member id for the first time. The first Add of a cohort
// anchors its grid at now + phase, exactly as Ticker.Start would for each
// member individually. Adding a live member panics.
func (ct *CohortTicker) Add(id int) {
	if ct.slot[id] >= 0 {
		panic(fmt.Sprintf("sim: cohort member %d added twice", id))
	}
	ct.activate(id)
}

// Stop deactivates member id in O(1): its slot becomes a tombstone that
// sweeps skip and compaction eventually reclaims. Stopping the last live
// member of a cohort cancels the cohort's pending event. Stopping a
// stopped member is a no-op.
func (ct *CohortTicker) Stop(id int) {
	i := ct.slot[id]
	if i < 0 {
		return
	}
	co := &ct.cohorts[ct.cohortOf[id]]
	co.slots[i].id = tombstone
	ct.slot[id] = -1
	co.active--
	co.dead++
	if co.active == 0 && co.running {
		ct.eng.Cancel(co.ev)
		co.running = false
	}
	co.maybeCompact()
}

// Resume reactivates stopped member id in O(1), appending it after every
// currently live member of its cohort: its next tick lands on the
// cohort's original grid, after the members that never stopped — the
// same instant and the same relative order a freshly rescheduled
// per-node ticker would get. Resuming a live member is a no-op.
func (ct *CohortTicker) Resume(id int) {
	if ct.slot[id] >= 0 {
		return
	}
	ct.activate(id)
}

// activate appends member id to its cohort's slot table and ensures the
// cohort event is pending.
func (ct *CohortTicker) activate(id int) {
	co := &ct.cohorts[ct.cohortOf[id]]
	now := ct.eng.Now()
	ct.slot[id] = int32(len(co.slots))
	co.slots = append(co.slots, cohortSlot{id: int32(id), joined: now})
	co.lastJoined = now
	co.active++
	if !co.started {
		co.started = true
		co.anchor = now + co.phase
		co.next = 1
		co.scheduleNext()
		return
	}
	if !co.running {
		co.next = nextGridIndex(co.anchor, ct.period, now)
		co.scheduleNext()
	}
}

// scheduleNext enqueues the cohort tick at grid index co.next, reusing the
// event struct when the engine no longer owns it. A canceled event still
// queued awaiting lazy discard gets a fresh struct instead, so the two
// never alias. Every tick event names its cohort, which the engine runs
// and the pending set keeps in its FIFO lane.
func (co *cohort) scheduleNext() {
	if co.ev.inQueue {
		co.ev = &Event{cohort: co, tag: Owned}
	}
	co.ct.eng.RescheduleAt(co.ev, gridTime(co.anchor, co.ct.period, co.next))
	co.running = true
}

// tick sweeps every live member in activation order, then re-arms on the
// next grid instant. When the idle gate holds, it reports the members the
// sweep would have run instead of running them.
func (co *cohort) tick() {
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
func (co *cohort) sweep(now Time) {
	co.sweeping = true
	// Members appended during the sweep (a callback resuming another
	// node) extend co.slots; the index walk reaches them, and the
	// joined-time guard keeps them silent until the next instant.
	for i := 0; i < len(co.slots); i++ {
		s := co.slots[i]
		if s.id == tombstone || s.joined == now {
			continue
		}
		co.ct.fn(int(s.id))
	}
	co.sweeping = false
	co.maybeCompact()
}

// due counts the live members a sweep at now would run: all of them, less
// any joined at this very instant. Only a Resume landing exactly on the
// tick instant makes the count walk the slot table.
func (co *cohort) due(now Time) int {
	if co.lastJoined != now {
		return co.active
	}
	n := 0
	for _, s := range co.slots {
		if s.id != tombstone && s.joined != now {
			n++
		}
	}
	return n
}

// maybeCompact rebuilds the slot table without tombstones once they
// dominate, preserving activation order and repairing the members' slot
// indices. Deferred while a sweep is walking the table.
func (co *cohort) maybeCompact() {
	if co.sweeping || co.dead < cohortCompactFloor || co.dead <= co.active {
		return
	}
	live := co.slots[:0]
	for _, s := range co.slots {
		if s.id == tombstone {
			continue
		}
		co.ct.slot[s.id] = int32(len(live))
		live = append(live, s)
	}
	co.slots = live
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
