package sim

import (
	"math"
	"testing"
)

// TestDeferRecyclesEvents checks the free-list mechanics: fired Defer
// events return to the pool, the pool feeds the next DeferAt, and
// handle-returning Schedule events are never pooled (a retained handle
// could Cancel a recycled struct).
func TestDeferRecyclesEvents(t *testing.T) {
	e := NewEngine()
	e.Defer(1, func() {})
	e.Defer(2, func() {})
	e.RunUntil(math.Inf(1))
	if got := len(e.free); got != 2 {
		t.Fatalf("free list has %d events after run, want 2", got)
	}
	e.Defer(1, func() {})
	if got := len(e.free); got != 1 {
		t.Fatalf("free list has %d events after Defer, want 1 (reuse)", got)
	}
	e.RunUntil(math.Inf(1))

	e2 := NewEngine()
	ev := e2.Schedule(1, func() {})
	e2.RunUntil(math.Inf(1))
	if len(e2.free) != 0 {
		t.Fatalf("Schedule event was pooled; its handle %p could corrupt a reused struct", ev)
	}
}

// TestDeferSelfReschedulingReusesOneEvent checks that release happens
// before the callback runs, so a callback that immediately re-defers
// cycles through a single pooled struct.
func TestDeferSelfReschedulingReusesOneEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 100 {
			e.Defer(1, fn)
		}
	}
	e.Defer(1, fn)
	e.RunUntil(math.Inf(1))
	if n != 100 {
		t.Fatalf("ran %d callbacks, want 100", n)
	}
	// The callback reschedules after release, so the chain should have
	// cycled through a single pooled struct.
	if got := len(e.free); got != 1 {
		t.Fatalf("free list has %d events, want 1 (single recycled struct)", got)
	}
}

// TestDeferOrderingMatchesSchedule checks that pooling does not disturb
// the (when, seq) FIFO contract when Defer and Schedule interleave at
// equal timestamps.
func TestDeferOrderingMatchesSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Defer(1, func() { order = append(order, 0) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Defer(1, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 3) })
	e.RunUntil(math.Inf(1))
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v, want ascending", order)
		}
	}
	// Second round drawing from the free list must preserve ordering too.
	var second []int
	e.Defer(1, func() { second = append(second, 0) })
	e.Defer(1, func() { second = append(second, 1) })
	e.RunUntil(math.Inf(1))
	for i, v := range second {
		if v != i {
			t.Fatalf("recycled order %v, want ascending", second)
		}
	}
}

// TestDeferAllocsSteadyState checks the point of the free list: a
// self-rescheduling Defer chain allocates no event structs once warm.
func TestDeferAllocsSteadyState(t *testing.T) {
	e := NewEngine()
	var fn func()
	fn = func() { e.Defer(1, fn) }
	e.Defer(1, fn)
	// Warm up: first pop seeds the free list.
	e.RunUntil(e.Now() + 5)
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Defer chain allocates %.1f objects/event, want 0", allocs)
	}
}
