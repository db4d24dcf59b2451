package sim

import "testing"

// UseHeapQueue makes every engine NewEngine builds for the rest of the
// test run on the reference heap queue, so a full-stack run can be
// replayed on it and compared against the production lane queue.
func UseHeapQueue(t testing.TB) {
	prev := newQueue
	newQueue = newHeapQueue
	t.Cleanup(func() { newQueue = prev })
}

// Pending reports how many events (including canceled-but-unswept ones)
// remain in the queue.
func (e *Engine) Pending() int { return e.q.len() }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Active reports whether member id is live.
func (ct *CohortTicker) Active(id int) bool { return ct.slot[id] >= 0 }
