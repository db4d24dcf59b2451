package sim

import (
	"container/heap"
	"math"
)

// calendarQueue is a hierarchical calendar queue (R. Brown, CACM 1988; the
// overflow tier follows the ladder-queue refinement) tuned for this
// simulator's workload shape: a dense band of near-future events — the
// de-synchronized per-node heartbeat tickers that dominate every run —
// plus a thin far-future tail (job arrivals, churn and chaos schedules).
//
// Near-future events land in fixed-width time buckets covering one "year"
// [yearStart, yearEnd); each bucket is kept sorted by (when, seq), so the
// head of the first non-empty bucket is the global bucketed minimum and
// both schedule and pop are amortized O(1). Events at or past yearEnd sit
// in an overflow min-heap and spill into buckets when the clock crosses
// into their year. Bucket count and width resize adaptively (doubling /
// halving with the width recomputed from the mean gap of the events at the
// head) so occupancy stays near one event per bucket.
//
// Determinism: pop order is strict (when, seq) — bit-identical to the
// binary heap — because bucket windows are disjoint and ascending, each
// bucket is sorted, and the overflow tier is itself a (when, seq) heap.
type calendarQueue struct {
	// now points at the engine clock. Every future push satisfies
	// when >= *now, which is what lets rebase anchor the year low enough
	// that it never has to move backwards twice for the same gap.
	now *Time

	width     Time // bucket width in simulated seconds
	yearStart Time // lower edge of bucket 0's window
	yearEnd   Time // yearStart + width*len(buckets)

	buckets []calBucket
	// cur is the first possibly-occupied bucket: every bucket below it is
	// empty, so the min scan starts here. Pops move it forward; a push
	// into an earlier window moves it back.
	cur int
	// n counts bucketed events (canceled included); overflow events are
	// counted separately by len(overflow).
	n int

	// overflow holds events at or past yearEnd — plus near-future events
	// diverted from a bucket that had filled its slab segment — min-ordered
	// by (when, seq). Because peek takes the eventLess-minimum of the first
	// non-empty bucket's head and the overflow top, correctness does not
	// depend on overflow events lying past the year window; the window is
	// purely a performance split.
	overflow eventHeap

	// cached memoizes the pending minimum between peek and pop;
	// cachedIdx is its bucket (-1 when it is the overflow top). nil means
	// recompute.
	cached    *Event
	cachedIdx int

	// scratch is the reusable rebuild buffer for rebase/resize.
	scratch []*Event
	// slab is the contiguous backing store the buckets' initial segments
	// are carved from; kept on the queue so shrinks reuse it instead of
	// reallocating.
	slab []*Event
}

// calBucket is one time window's events, sorted by (when, seq). head is
// the pop cursor: evs[:head] have already been popped (and nil-ed).
type calBucket struct {
	evs  []*Event
	head int
}

const (
	// calMinBuckets is the smallest (and initial) bucket count; resize
	// doubles and halves from here, never below. Generous on purpose: the
	// year span is width×buckets, and a longer year means fewer boundary
	// crossings — each of which detours the pending band through the
	// overflow heap — for 16KB of slab per engine.
	calMinBuckets = 256
	// calInitialWidth is the starting bucket width before any gap
	// statistics exist: one simulated second, the heartbeat scale.
	calInitialWidth = 1.0
	// calBucketCap is the per-bucket slab capacity pre-allocated at
	// construction and resize. The adaptive width targets ~3 events per
	// bucket (calWidthFactor), so 8 covers the occupancy distribution's
	// tail and the lockstep heartbeat cohorts the cluster models produce
	// (nodes restarted by the same recovery tick beat in phase forever),
	// so steady-state pushes almost never outgrow the slab.
	calBucketCap = 16
	// calSampleEvents bounds how many head events the resize samples when
	// recomputing the width.
	calSampleEvents = 25
	// calWidthFactor is Brown's rule of thumb: width ≈ 3× the mean gap
	// between successive events at the head of the queue.
	calWidthFactor = 3.0
)

func newCalendarQueue(now *Time) *calendarQueue {
	q := &calendarQueue{
		now:       now,
		width:     calInitialWidth,
		overflow:  make(eventHeap, 0, 64),
		cachedIdx: -1,
	}
	q.allocBuckets(calMinBuckets)
	q.yearStart = 0
	q.yearEnd = q.span()
	return q
}

// allocBuckets installs nbuckets empty buckets, each with calBucketCap
// capacity carved from one contiguous slab. The slab and bucket-header
// slices are reused when already big enough (every shrink, and regrows up
// to the high-water mark), so resize allocates only while the queue is
// reaching a new peak size.
func (q *calendarQueue) allocBuckets(nbuckets int) {
	need := nbuckets * calBucketCap
	if cap(q.slab) >= need {
		q.slab = q.slab[:need]
		for i := range q.slab {
			q.slab[i] = nil
		}
	} else {
		q.slab = make([]*Event, need)
	}
	if cap(q.buckets) >= nbuckets {
		q.buckets = q.buckets[:nbuckets]
	} else {
		q.buckets = make([]calBucket, nbuckets)
	}
	for i := range q.buckets {
		q.buckets[i] = calBucket{evs: q.slab[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]}
	}
	q.cur = 0
}

func (q *calendarQueue) span() Time { return q.width * Time(len(q.buckets)) }

// bucketFor maps a time in [yearStart, yearEnd) to its bucket. Float
// rounding in the division can land one window off; the correction keeps
// windows exactly half-open and disjoint, which the min scan's ordering
// argument depends on.
func (q *calendarQueue) bucketFor(when Time) int {
	idx := int((when - q.yearStart) / q.width)
	if idx < 0 {
		idx = 0
	} else if idx >= len(q.buckets) {
		idx = len(q.buckets) - 1
	}
	if idx > 0 && when < q.yearStart+Time(idx)*q.width {
		idx--
	} else if idx+1 < len(q.buckets) && when >= q.yearStart+Time(idx+1)*q.width {
		idx++
	}
	return idx
}

func (q *calendarQueue) push(ev *Event) {
	if ev.when < q.yearStart {
		// Rare: the year advanced past a gap (e.g. popping a lazily
		// canceled far-future event leaves yearStart above the clock) and
		// the caller then scheduled before the window. Re-anchor at the
		// clock so no later push can land below the year again.
		q.rebase(math.Min(ev.when, *q.now))
	}
	if ev.when >= q.yearEnd {
		q.overflowPush(ev)
		return
	}
	idx := q.bucketFor(ev.when)
	if b := &q.buckets[idx]; len(b.evs) == cap(b.evs) {
		// The target bucket filled its slab segment: the width is likely
		// too wide for the population (a dense event band crammed into a
		// couple of windows while the rest of the year sits empty), and a
		// full bucket is the only signal — the grow/shrink thresholds
		// watch the population count, not its spread. Re-fit when the
		// sample really halves the width; the 2× hysteresis keeps the
		// O(n) rebuild from thrashing, and same-instant cohorts (which no
		// width can split) fail the hysteresis and fall through.
		if w := q.sampleWidth(); w > 0 && w < q.width/2 {
			q.resize(len(q.buckets))
			if ev.when >= q.yearEnd {
				// The narrower width pulled yearEnd below this event.
				q.overflowPush(ev)
				return
			}
			idx = q.bucketFor(ev.when)
		}
		// Still full (a same-instant burst, which no width fixes): divert
		// to the overflow heap instead of growing the bucket. Ordering is
		// unaffected — peek min-compares the two tiers — and the bucket
		// append path stays allocation-free by construction.
		if b := &q.buckets[idx]; len(b.evs) == cap(b.evs) {
			q.overflowPush(ev)
			return
		}
	}
	if idx < q.cur {
		q.cur = idx
	}
	q.bucketInsert(idx, ev)
	q.n++
	if q.cached != nil && eventLess(ev, q.cached) {
		q.cached, q.cachedIdx = ev, idx
	}
	q.maybeGrow()
}

// overflowPush adds ev to the overflow tier, maintaining the peek memo.
func (q *calendarQueue) overflowPush(ev *Event) {
	heap.Push(&q.overflow, ev)
	if q.cached != nil && eventLess(ev, q.cached) {
		q.cached, q.cachedIdx = ev, -1
	}
	q.maybeGrow()
}

// bucketInsert places ev into bucket idx keeping evs[head:] sorted by
// (when, seq). The common case — a new event later than everything in its
// bucket — is a plain append.
func (q *calendarQueue) bucketInsert(idx int, ev *Event) {
	b := &q.buckets[idx]
	lo, hi := b.head, len(b.evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(ev, b.evs[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b.evs = append(b.evs, nil)
	copy(b.evs[lo+1:], b.evs[lo:])
	b.evs[lo] = ev
}

func (q *calendarQueue) peek() *Event {
	if q.cached != nil {
		return q.cached
	}
	if q.n > 0 {
		for i := q.cur; i < len(q.buckets); i++ {
			b := &q.buckets[i]
			if b.head < len(b.evs) {
				// Skipped buckets are genuinely empty; advancing cur past
				// them is safe because a push into an earlier window
				// moves cur back.
				q.cur = i
				q.cached, q.cachedIdx = b.evs[b.head], i
				break
			}
		}
		if q.cached == nil {
			panic("sim: calendar queue lost a bucketed event")
		}
	}
	// The overflow tier can hold near-future events (full-bucket
	// diversions), so its top competes with the bucketed minimum.
	if len(q.overflow) > 0 && (q.cached == nil || eventLess(q.overflow[0], q.cached)) {
		q.cached, q.cachedIdx = q.overflow[0], -1
	}
	return q.cached
}

func (q *calendarQueue) pop() *Event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	if q.cachedIdx >= 0 {
		b := &q.buckets[q.cachedIdx]
		b.evs[b.head] = nil
		b.head++
		if b.head == len(b.evs) {
			b.evs = b.evs[:0]
			b.head = 0
		}
		q.cur = q.cachedIdx
		q.n--
	} else {
		heap.Pop(&q.overflow)
		// A pop past yearEnd means the clock is jumping into a later year:
		// re-anchor the buckets around it and pull the rest of the
		// overflow tail forward. (Near-future diversions popped from the
		// overflow tier leave the window alone.)
		if ev.when >= q.yearEnd && !math.IsInf(ev.when, 1) {
			q.advanceYearTo(ev.when)
		}
	}
	q.cached = nil
	q.maybeShrink()
	return ev
}

func (q *calendarQueue) len() int { return q.n + len(q.overflow) }

// advanceYearTo moves the year window to contain t (the event being popped
// from the overflow tier, i.e. the imminent clock value) and spills every
// overflow event that now falls inside the window into buckets.
func (q *calendarQueue) advanceYearTo(t Time) {
	q.yearStart = math.Floor(t/q.width) * q.width
	q.yearEnd = q.yearStart + q.span()
	q.cur = 0
	q.spillOverflow()
	// A year crossing is also the natural moment to re-fit the width: the
	// whole pending set just re-bucketed, so a width mismatch (the event
	// band crammed into a few buckets while the rest of the year sits
	// empty) is visible now, and at small populations this is the only
	// trigger — the grow/shrink thresholds never fire. The 2× hysteresis
	// keeps alternating widths from thrashing the O(n) rebuild, and a
	// rebuild can happen at most once per crossing, whose spill already
	// cost O(pending).
	if w := q.sampleWidth(); w > 0 && (w < q.width/2 || w > q.width*2) {
		q.resize(len(q.buckets))
	}
}

// spillOverflow drains overflow events with when < yearEnd into buckets,
// stopping early if a spill target has filled its slab segment (the
// remaining events simply stay in the overflow tier, which peek already
// treats as a competing minimum).
func (q *calendarQueue) spillOverflow() {
	for len(q.overflow) > 0 && q.overflow[0].when < q.yearEnd {
		ev := q.overflow[0]
		idx := q.bucketFor(ev.when)
		if b := &q.buckets[idx]; len(b.evs) == cap(b.evs) {
			return
		}
		heap.Pop(&q.overflow)
		q.bucketInsert(idx, ev)
		q.n++
	}
}

// rebase moves the year window down so that anchor falls inside it, then
// re-buckets everything under the new geometry.
func (q *calendarQueue) rebase(anchor Time) {
	all := q.collect()
	q.yearStart = math.Floor(anchor/q.width) * q.width
	q.yearEnd = q.yearStart + q.span()
	q.reinsert(all)
}

// collect drains every queued event (buckets and overflow) into the
// reusable scratch buffer and leaves the queue structurally empty.
func (q *calendarQueue) collect() []*Event {
	if cap(q.scratch) < q.len() {
		// Size the rebuild buffer in one shot rather than letting append
		// double its way up; it is retained, so this happens only when the
		// queue reaches a new peak population.
		q.scratch = make([]*Event, 0, q.len())
	}
	all := q.scratch[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		all = append(all, b.evs[b.head:]...)
		b.evs = b.evs[:0]
		b.head = 0
	}
	all = append(all, q.overflow...)
	q.overflow = q.overflow[:0]
	q.n = 0
	q.cur = 0
	q.cached = nil
	return all
}

// reinsert re-buckets a collect()ed event set under the current year
// geometry. Bucket backing arrays are kept across rebase, so steady-state
// rebuilds allocate only when a bucket outgrows its previous capacity.
func (q *calendarQueue) reinsert(all []*Event) {
	for _, ev := range all {
		if ev.when >= q.yearEnd {
			q.overflow = append(q.overflow, ev)
			continue
		}
		idx := q.bucketFor(ev.when)
		if b := &q.buckets[idx]; len(b.evs) == cap(b.evs) {
			q.overflow = append(q.overflow, ev) // full bucket: divert
			continue
		}
		q.bucketInsert(idx, ev)
		q.n++
	}
	heap.Init(&q.overflow)
	for i := range all {
		all[i] = nil
	}
	q.scratch = all[:0]
}

func (q *calendarQueue) maybeGrow() {
	if q.len() > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

func (q *calendarQueue) maybeShrink() {
	if len(q.buckets) > calMinBuckets && q.len() < len(q.buckets)/2 {
		q.resize(len(q.buckets) / 2)
	}
}

// resize recomputes the width from the head of the queue, reallocates
// nbuckets buckets, and re-buckets everything. Called on doubling /
// halving thresholds, so its O(n) cost amortizes to O(1) per operation.
func (q *calendarQueue) resize(nbuckets int) {
	if w := q.sampleWidth(); w > 0 {
		q.width = w
	}
	// Anchor the new year at (or below) the old one and the clock, so the
	// invariant yearStart <= every future push survives the move.
	anchor := math.Min(q.yearStart, *q.now)
	all := q.collect()
	q.allocBuckets(nbuckets)
	q.yearStart = math.Floor(anchor/q.width) * q.width
	q.yearEnd = q.yearStart + q.span()
	q.reinsert(all)
}

// sampleWidth estimates a bucket width as calWidthFactor times the mean
// gap between the first calSampleEvents bucketed events (which are already
// in exact pop order: ascending disjoint windows, sorted within each).
// It returns 0 when there is no usable signal (fewer than two events, or
// all at one instant) and the caller keeps the old width.
func (q *calendarQueue) sampleWidth() Time {
	var first, last Time
	count := 0
	for i := q.cur; i < len(q.buckets) && count < calSampleEvents; i++ {
		b := &q.buckets[i]
		for j := b.head; j < len(b.evs) && count < calSampleEvents; j++ {
			if count == 0 {
				first = b.evs[j].when
			}
			last = b.evs[j].when
			count++
		}
	}
	if count < 2 || last <= first {
		return 0
	}
	w := calWidthFactor * (last - first) / Time(count-1)
	if math.IsInf(w, 1) || w <= 0 {
		return 0
	}
	return w
}

func (q *calendarQueue) compact() int {
	removed := 0
	if q.n > 0 {
		for i := q.cur; i < len(q.buckets); i++ {
			b := &q.buckets[i]
			w := b.head
			for j := b.head; j < len(b.evs); j++ {
				if b.evs[j].canceled {
					b.evs[j].inQueue = false
					removed++
					continue
				}
				b.evs[w] = b.evs[j]
				w++
			}
			for j := w; j < len(b.evs); j++ {
				b.evs[j] = nil
			}
			b.evs = b.evs[:w]
			if b.head == len(b.evs) {
				b.evs = b.evs[:0]
				b.head = 0
			}
		}
		q.n -= removed
	}
	kept := q.overflow[:0]
	for _, ev := range q.overflow {
		if ev.canceled {
			ev.inQueue = false
			removed++
			continue
		}
		kept = append(kept, ev)
	}
	if len(kept) < len(q.overflow) {
		// Only a sweep that actually dropped overflow events disturbs the
		// heap shape; an untouched tier keeps its invariant.
		for i := len(kept); i < len(q.overflow); i++ {
			q.overflow[i] = nil
		}
		q.overflow = kept
		heap.Init(&q.overflow)
	}
	q.cached = nil
	return removed
}

func (q *calendarQueue) each(f func(*Event)) {
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, ev := range b.evs[b.head:] {
			f(ev)
		}
	}
	for _, ev := range q.overflow {
		f(ev)
	}
}
