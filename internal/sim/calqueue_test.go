package sim

import (
	"math"
	"math/rand"
	"testing"
)

// firing is one observed event execution: the clock when it ran plus the
// caller-assigned id, enough to prove two engines fired the identical
// schedule (the engine's (when, seq) order is observable as (time, id)
// when every op is issued to both engines in lockstep).
type firing struct {
	at Time
	id int
}

// opScript drives one engine through a deterministic random interleaving
// of Schedule/At/Defer/Cancel/RunUntil (plus nested scheduling from inside
// callbacks) and returns the firing sequence.
func opScript(e *Engine, seed int64, ops int) []firing {
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	var handles []*Event
	nextID := 0
	record := func(id int) func() {
		return func() { fired = append(fired, firing{e.Now(), id}) }
	}
	// nested occasionally schedules a follow-up from inside a callback,
	// the pattern task-completion chains produce.
	var nested func(id int, depth int) func()
	nested = func(id, depth int) func() {
		return func() {
			fired = append(fired, firing{e.Now(), id})
			if depth > 0 {
				nextID++
				e.Schedule(float64(id%7)/8, nested(nextID, depth-1))
			}
		}
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // Schedule with handle
			nextID++
			handles = append(handles, e.Schedule(rng.Float64()*20, record(nextID)))
		case 3: // At, occasionally far future (overflow tier)
			nextID++
			when := e.Now() + rng.Float64()*5
			if rng.Intn(4) == 0 {
				when = e.Now() + 100 + rng.Float64()*1000
			}
			handles = append(handles, e.At(when, record(nextID)))
		case 4, 5: // Defer (pooled)
			nextID++
			e.Defer(rng.Float64()*10, record(nextID))
		case 6: // nested chain
			nextID++
			e.Schedule(rng.Float64()*3, nested(nextID, rng.Intn(4)))
		case 7: // Cancel a random outstanding handle
			if len(handles) > 0 {
				e.Cancel(handles[rng.Intn(len(handles))])
			}
		case 8: // duplicate timestamps to stress FIFO tie-breaking
			nextID++
			when := math.Floor(e.Now()) + float64(rng.Intn(4))
			if when < e.Now() {
				when = e.Now()
			}
			handles = append(handles, e.At(when, record(nextID)))
		case 9: // partial run
			e.RunUntil(e.Now() + rng.Float64()*8)
		}
		if i%37 == 36 {
			// Tight burst: overfill one bucket window so the calendar's
			// full-bucket diversion and skew-driven width re-fit run under
			// the differential contract too (a plain uniform spread almost
			// never exercises them).
			base := rng.Float64() * 4
			for j := 0; j < 12; j++ {
				nextID++
				e.Schedule(base+rng.Float64()*0.01, record(nextID))
			}
		}
	}
	e.Run()
	return fired
}

// TestDifferentialHeapVsCalendar is the equivalence contract of the
// calendar queue: random interleavings of Schedule/At/Defer/Cancel/
// RunUntil replayed on the heap engine and the calendar engine must fire
// the identical (time, id) sequence and report identical Processed counts.
// The same rand seed drives both scripts, so every op lands identically.
func TestDifferentialHeapVsCalendar(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cal := NewEngine()
		hp := newHeapEngine()
		calFired := opScript(cal, seed, 400)
		hpFired := opScript(hp, seed, 400)
		if len(calFired) != len(hpFired) {
			t.Fatalf("seed %d: calendar fired %d events, heap %d", seed, len(calFired), len(hpFired))
		}
		for i := range calFired {
			if calFired[i] != hpFired[i] {
				t.Fatalf("seed %d: firing %d diverges: calendar %+v, heap %+v",
					seed, i, calFired[i], hpFired[i])
			}
		}
		if cal.Processed() != hp.Processed() {
			t.Fatalf("seed %d: Processed %d vs %d", seed, cal.Processed(), hp.Processed())
		}
		if cal.Now() != hp.Now() {
			t.Fatalf("seed %d: final clock %v vs %v", seed, cal.Now(), hp.Now())
		}
	}
}

// FuzzQueueEquivalence is the same differential property as a native fuzz
// target, so `go test -fuzz` can hunt for interleavings the fixed seeds
// miss.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		cal := NewEngine()
		hp := newHeapEngine()
		calFired := opScript(cal, seed, 200)
		hpFired := opScript(hp, seed, 200)
		if len(calFired) != len(hpFired) {
			t.Fatalf("calendar fired %d events, heap %d", len(calFired), len(hpFired))
		}
		for i := range calFired {
			if calFired[i] != hpFired[i] {
				t.Fatalf("firing %d diverges: calendar %+v, heap %+v", i, calFired[i], hpFired[i])
			}
		}
		if cal.Processed() != hp.Processed() {
			t.Fatalf("Processed %d vs %d", cal.Processed(), hp.Processed())
		}
	})
}

// TestCalendarSkewRefitKeepsOrder pins the regression where a tight burst
// overfills one bucket, the skew re-fit shrinks the width so hard that the
// year window ends below the event that triggered it, and that event must
// be diverted to the overflow tier — clamping it into the last bucket
// instead leaves it stranded behind later-window buckets once the year
// advances, firing it after later events (time runs backwards).
func TestCalendarSkewRefitKeepsOrder(t *testing.T) {
	cal := NewEngine()
	hp := newHeapEngine()
	run := func(e *Engine) []Time {
		var fired []Time
		rec := func() { fired = append(fired, e.Now()) }
		// Nine events in an 8ms band: the ninth push finds its bucket's
		// slab segment full and trips the width re-fit.
		for i := 0; i < 9; i++ {
			e.At(1.0+0.001*float64(i), rec)
		}
		e.At(1.05, rec) // lands in a middle bucket after the year re-anchors
		e.At(30, rec)   // far tier
		e.Run()
		return fired
	}
	calFired, hpFired := run(cal), run(hp)
	if len(calFired) != len(hpFired) {
		t.Fatalf("calendar fired %d events, heap %d", len(calFired), len(hpFired))
	}
	for i := range calFired {
		if calFired[i] != hpFired[i] {
			t.Fatalf("firing %d diverges: calendar %v, heap %v", i, calFired[i], hpFired[i])
		}
		if i > 0 && calFired[i] < calFired[i-1] {
			t.Fatalf("time went backwards: %v after %v", calFired[i], calFired[i-1])
		}
	}
}

// TestCalendarQueueFarFutureTier exercises the overflow tier directly: a
// dense near band plus a thin far tail, popped across several year
// advances, must come out in exact time order.
func TestCalendarQueueFarFutureTier(t *testing.T) {
	e := NewEngine()
	var times []Time
	rec := func() { times = append(times, e.Now()) }
	for i := 0; i < 200; i++ {
		e.Schedule(float64(i)*0.05, rec) // dense band within ~10s
	}
	for i := 0; i < 20; i++ {
		e.Schedule(1e4+float64(i)*1e3, rec) // far tail across many years
	}
	e.Schedule(1e8, rec) // extreme outlier
	e.Run()
	if len(times) != 221 {
		t.Fatalf("fired %d events, want 221", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time order violated at %d: %v after %v", i, times[i], times[i-1])
		}
	}
	if times[len(times)-1] != 1e8 {
		t.Fatalf("outlier fired at %v", times[len(times)-1])
	}
}

// TestCalendarQueueResizeUnderLoad pushes enough events to force several
// grow cycles, then drains past the shrink threshold, verifying counts
// survive both directions.
func TestCalendarQueueResizeUnderLoad(t *testing.T) {
	e := NewEngine()
	const n = 5000
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(float64((i*31)%997)/10, func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}

// TestCompactionBoundsCanceledGarbage cancels far more events than it
// keeps; the threshold sweep must hold the queue near the live population
// instead of retaining every canceled struct until its timestamp.
func TestCompactionBoundsCanceledGarbage(t *testing.T) {
	for _, qk := range queueKinds {
		e := qk.mk()
		e.Schedule(1e6, func() {}) // one live far-future event
		for i := 0; i < 10_000; i++ {
			ev := e.Schedule(1e5+float64(i), func() { t.Fatal("canceled event fired") })
			e.Cancel(ev)
		}
		if p := e.Pending(); p > 2*compactFloor {
			t.Fatalf("%s: pending %d after 10k cancels, want <= %d",
				qk.name, p, 2*compactFloor)
		}
		e.Run()
		if e.Processed() != 1 {
			t.Fatalf("%s: processed %d, want 1", qk.name, e.Processed())
		}
	}
}

// TestTickerFlapBoundsPending is the start/stop-churn regression: flap
// injection repeatedly stops and restarts heartbeat tickers, and before
// eager cancel accounting each cycle left another canceled event queued
// until its (period-distant) timestamp. 10k cycles must leave the pending
// set bounded, on both queue implementations.
func TestTickerFlapBoundsPending(t *testing.T) {
	for _, qk := range queueKinds {
		e := qk.mk()
		tk := NewTicker(e, 1000, func() {})
		maxPending := 0
		for i := 0; i < 10_000; i++ {
			tk.Start(float64(i%7) / 10)
			// Let some cycles tick a little so the event struct cycles
			// through fired-and-reused as well as canceled-in-queue.
			if i%100 == 0 {
				e.RunUntil(e.Now() + 1)
			}
			tk.Stop()
			if p := e.Pending(); p > maxPending {
				maxPending = p
			}
		}
		if maxPending > 2*compactFloor {
			t.Fatalf("%s: pending grew to %d across 10k start/stop cycles, want <= %d",
				qk.name, maxPending, 2*compactFloor)
		}
	}
}

// TestTickerReschedulesInPlace verifies the fast path: a steady ticker
// allocates nothing per tick because it re-enqueues its own event struct.
func TestTickerReschedulesInPlace(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := NewTicker(e, 1, func() { ticks++ })
	tk.Start(0)
	e.RunUntil(10) // warm: first tick allocates the struct
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("steady ticker allocates %.2f objects/tick, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never ticked")
	}
}

// TestTickerStopStartWithinCallback flaps the ticker from inside its own
// callback: the restart must keep exactly one pending tick (the old
// implementation double-scheduled here).
func TestTickerStopStartWithinCallback(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(e, 2, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 2 {
			tk.Stop()
			tk.Start(0.5)
		}
	})
	tk.Start(0)
	e.RunUntil(11)
	want := []Time{2, 4, 6.5, 8.5, 10.5}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

// TestRescheduleContractPanics pins the misuse panics of the fast path.
func TestRescheduleContractPanics(t *testing.T) {
	t.Run("pending", func(t *testing.T) {
		e := NewEngine()
		ev := e.Schedule(1, func() {})
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic rescheduling a pending event")
			}
		}()
		e.RescheduleAt(ev, 2)
	})
	t.Run("negative", func(t *testing.T) {
		e := NewEngine()
		ev := e.Schedule(1, func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic rescheduling into the past")
			}
		}()
		e.RescheduleAt(ev, e.Now()-1)
	})
	t.Run("nil", func(t *testing.T) {
		e := NewEngine()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on nil event")
			}
		}()
		e.RescheduleAt(nil, 1)
	})
}

// TestCalendarQueueGapThenEarlySchedule reproduces the year-jump rebase
// path: cancel a far-future event, drain (the pop advances the year past
// the gap without moving the clock), then schedule near the present — the
// queue must re-anchor instead of mis-bucketing.
func TestCalendarQueueGapThenEarlySchedule(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1e5, func() {})
	e.Cancel(ev)
	e.Run() // pops the canceled far event; clock stays 0
	if e.Now() != 0 {
		t.Fatalf("clock %v, want 0", e.Now())
	}
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("near-present event lost after year jump")
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
}
