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
