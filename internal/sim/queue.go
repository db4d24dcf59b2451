package sim

import "container/heap"

// pendingQueue is the pending-event set behind the engine. Implementations
// must pop in strict (when, seq) order — earliest first, FIFO among equal
// timestamps — because that order is the engine's determinism contract.
// Two implementations exist: the calendar queue (default, amortized O(1)
// for the simulator's dense near-future event band) and the legacy binary
// heap (O(log n), kept runtime-selectable so differential tests can prove
// the calendar queue fires the exact same schedule).
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
	// each visits every queued event (canceled included) in unspecified
	// order; the caller must not mutate the queue during the walk.
	// EncodePending sorts the visited events by (when, seq) itself.
	each(f func(*Event))
	// kind names the implementation ("calendar" or "heap").
	kind() string
}

// eventLess is the engine-wide ordering: by time, then FIFO by sequence
// number among equal timestamps.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// ---------------------------------------------------------------------------
// Legacy binary-heap queue

// eventHeap orders by (when, seq): earliest first, FIFO among equal
// timestamps.
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// heapQueue adapts eventHeap to the pendingQueue interface. It is the
// original engine core, preserved behind SetHeapQueue for differential
// testing and head-to-head benchmarking.
type heapQueue struct {
	h eventHeap
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) compact() int {
	kept := q.h[:0]
	for _, ev := range q.h {
		if ev.canceled {
			ev.inQueue = false
			continue
		}
		kept = append(kept, ev)
	}
	removed := len(q.h) - len(kept)
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	heap.Init(&q.h)
	return removed
}

func (q *heapQueue) each(f func(*Event)) {
	for _, ev := range q.h {
		f(ev)
	}
}

func (q *heapQueue) kind() string { return "heap" }
