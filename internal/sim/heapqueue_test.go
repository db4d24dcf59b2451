package sim

import "container/heap"

// heapQueue is the reference pending-event set: a plain (when, seq)
// binary heap, the engine's original core. The lane queue must fire
// exactly the schedule it fires (TestEngineMatchesHeapQueue,
// FuzzQueueEquivalence, and the full-stack TestCalendarMatchesHeapFullStack
// through UseHeapQueue).
type heapQueue struct {
	h eventHeap
}

func newHeapQueue() pendingQueue { return &heapQueue{} }

// newHeapEngine returns an engine running on the reference heap queue.
func newHeapEngine() *Engine {
	e := NewEngine()
	e.q = newHeapQueue()
	return e
}

// queueKinds lists both pending-set implementations, for properties that
// must hold on each.
var queueKinds = []struct {
	name string
	mk   func() *Engine
}{{"lane", NewEngine}, {"heap", newHeapEngine}}

// The reference queue drives eventHeap through container/heap's binary
// sift, independent of the lane queue's typed 4-ary one.
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
