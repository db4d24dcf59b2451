package sim

import "container/heap"

// heapQueue is the reference pending-event set: a plain (when, seq)
// binary heap, the engine's original core. The calendar queue must fire
// exactly the schedule it fires (TestDifferentialHeapVsCalendar,
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
}{{"calendar", NewEngine}, {"heap", newHeapEngine}}

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
