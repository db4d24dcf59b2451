package sim

import "slices"

// pendingQueue is the pending-event set behind the engine. Implementations
// must pop in strict (when, seq) order — earliest first, FIFO among equal
// timestamps — because that order is the engine's determinism contract.
// The engine runs on laneQueue; the tests hold a binary-heap reference
// (heapqueue_test.go) and prove laneQueue fires the exact same schedule.
type pendingQueue interface {
	// push inserts ev. The caller (the engine) has already marked it
	// inQueue.
	push(ev *Event)
	// pop removes and returns the minimum (when, seq) event, nil if empty.
	pop() *Event
	// peek returns the minimum without removing it, nil if empty.
	peek() *Event
	// len reports how many events (canceled included) are queued.
	len() int
	// compact removes every canceled event, clears its inQueue mark, and
	// reports how many were dropped. Relative order of survivors is
	// preserved.
	compact() int
	// reserveTicks makes room for n more pending cohort ticks, so a
	// ticker's first ticks do not regrow the queue.
	reserveTicks(n int)
	// each visits every queued event (canceled included) in unspecified
	// order; the caller must not mutate the queue during the walk.
	// WalkPending sorts the visited events by (when, seq) itself.
	each(f func(*Event))
}

// laneQueue is the engine's pending set: a sorted FIFO lane for cohort
// ticks beside a 4-ary heap for every other event.
//
// Cohort ticks are the densest event class a run schedules, and they
// arrive almost sorted: a CohortTicker has one period, so a fired tick
// re-arms one period later, after every pending tick of its group. A
// cohort tick (an event whose cohort is set) joins the lane when it is
// not eventLess than the lane's tail — an O(1) append — and goes to the
// heap otherwise; so does every other event. peek and pop
// take the eventLess minimum of the lane head and the heap top, so pop
// order is strict (when, seq) whatever the lane admits, and the lane's
// FIFO-ness only affects speed. A resumed cohort, or ticks restored in
// cohort order, pass through the heap once and rejoin the lane after they
// first fire.
type laneQueue struct {
	// lane holds marked events sorted by (when, seq); lane[:head] are
	// popped slots, nil-ed. Once half the slice is consumed, pop slides
	// the live part back to the front, so a steady period reuses the
	// same storage and allocates nothing.
	lane []*Event
	head int
	heap eventHeap
}

// laneInitialCap is the lane's and the heap's starting capacity: enough
// for a small cluster's cohort band and event backlog without regrowth.
const laneInitialCap = 64

func newLaneQueue() pendingQueue {
	return &laneQueue{
		lane: make([]*Event, 0, laneInitialCap),
		heap: make(eventHeap, 0, laneInitialCap),
	}
}

func (q *laneQueue) reserveTicks(n int) { q.lane = slices.Grow(q.lane, n) }

func (q *laneQueue) push(ev *Event) {
	if ev.cohort != nil && (q.head == len(q.lane) || !eventLess(ev, q.lane[len(q.lane)-1])) {
		q.lane = append(q.lane, ev)
		return
	}
	q.heap.push(ev)
}

// fromLane reports whether the pending minimum is the lane head; the
// queue must not be empty.
func (q *laneQueue) fromLane() bool {
	return q.head < len(q.lane) && (len(q.heap) == 0 || eventLess(q.lane[q.head], q.heap[0]))
}

func (q *laneQueue) peek() *Event {
	if q.head == len(q.lane) && len(q.heap) == 0 {
		return nil
	}
	if q.fromLane() {
		return q.lane[q.head]
	}
	return q.heap[0]
}

func (q *laneQueue) pop() *Event {
	if q.head == len(q.lane) && len(q.heap) == 0 {
		return nil
	}
	if !q.fromLane() {
		return q.heap.pop()
	}
	ev := q.lane[q.head]
	q.lane[q.head] = nil
	q.head++
	if 2*q.head >= len(q.lane) {
		n := copy(q.lane, q.lane[q.head:])
		clear(q.lane[n:])
		q.lane = q.lane[:n]
		q.head = 0
	}
	return ev
}

func (q *laneQueue) len() int { return len(q.lane) - q.head + len(q.heap) }

func (q *laneQueue) compact() int {
	removed := 0
	kept := q.lane[:0]
	for _, ev := range q.lane[q.head:] {
		if ev.canceled {
			ev.inQueue = false
			removed++
			continue
		}
		kept = append(kept, ev)
	}
	clear(q.lane[len(kept):])
	q.lane, q.head = kept, 0
	heapKept := q.heap[:0]
	for _, ev := range q.heap {
		if ev.canceled {
			ev.inQueue = false
			removed++
			continue
		}
		heapKept = append(heapKept, ev)
	}
	if len(heapKept) < len(q.heap) {
		// Only a sweep that dropped heap events disturbs the heap shape.
		clear(q.heap[len(heapKept):])
		q.heap = heapKept
		q.heap.init()
	}
	return removed
}

func (q *laneQueue) each(f func(*Event)) {
	for _, ev := range q.lane[q.head:] {
		f(ev)
	}
	for _, ev := range q.heap {
		f(ev)
	}
}

// eventLess is the engine-wide ordering: by time, then FIFO by sequence
// number among equal timestamps.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (when, seq): earliest first,
// FIFO among equal timestamps. It holds every event laneQueue's lane does
// not take. Its methods are typed, so sift comparisons are direct
// eventLess calls rather than container/heap's interface dispatch, and
// the wider fan-out halves the tree depth a pop sifts through. Pop order is the strict
// (when, seq) order whatever the heap's shape, because seq is unique.
type eventHeap []*Event

// heapArity is the heap's fan-out: node i's children are 4i+1 … 4i+4.
const heapArity = 4

// push inserts ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// init restores the heap order over arbitrary contents in O(n).
func (h eventHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts the event at i toward the root.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down sifts the event at i toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		least := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if eventLess(h[c], h[least]) {
				least = c
			}
		}
		if !eventLess(h[least], ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ev
}
