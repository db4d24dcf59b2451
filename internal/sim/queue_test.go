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
// callbacks) over a periodic background of cohort ticks from two groups
// with different periods, whose members flap, and returns the firing
// sequence.
func opScript(e *Engine, seed int64, ops int) []firing {
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	var handles []*Event
	nextID := 0
	record := func(id int) func() {
		return func() { fired = append(fired, firing{e.Now(), id}) }
	}
	// Periodic pushes: two cohort groups whose periods differ, so a
	// re-armed tick of one group can land before the lane's tail and fall
	// back to the heap. Members record under negative ids.
	var members []*CohortMember
	for g, period := range []Time{1.5, 2.5} {
		ct := NewCohortTicker(e, period)
		for c := 0; c < 3; c++ {
			co := ct.NewCohort(period * Time(c) / 3)
			for i := 0; i < 2; i++ {
				members = append(members, co.Add(record(-1-len(members))))
			}
		}
		if g == 0 {
			e.RunUntil(rng.Float64()) // start the second group off the first's grid
		}
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
		switch rng.Intn(11) {
		case 0, 1, 2: // Schedule with handle
			nextID++
			handles = append(handles, e.Schedule(rng.Float64()*20, record(nextID)))
		case 3: // At, occasionally far future
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
		case 10: // flap a cohort member
			if m := members[rng.Intn(len(members))]; m.Active() {
				m.Stop()
			} else {
				m.Resume()
			}
		}
		if i%37 == 36 {
			// Tight burst: many events within 10ms of each other.
			base := rng.Float64() * 4
			for j := 0; j < 12; j++ {
				nextID++
				e.Schedule(base+rng.Float64()*0.01, record(nextID))
			}
		}
	}
	for _, m := range members {
		m.Stop()
	}
	e.RunUntil(math.Inf(1))
	return fired
}

// cohortBandScript drives the heartbeat shape of a 10k-node cluster:
// 1,250 cohorts of eight members on phases spread over one period, so a
// dense band of cohort ticks rides the lane, plus a far-future tail of
// one-shot events and a few members flapping. probe runs between run
// slices.
func cohortBandScript(e *Engine, seed int64, probe func()) []firing {
	const cohorts, size, period = 1250, 8, 3.0
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	ct := NewCohortTicker(e, period)
	var ms []*CohortMember
	for c := 0; c < cohorts; c++ {
		co := ct.NewCohort(period * float64(c) / cohorts)
		for i := 0; i < size; i++ {
			id := c*size + i
			ms = append(ms, co.Add(func() {
				if id%size == 0 || id%97 == 0 {
					fired = append(fired, firing{e.Now(), id})
				}
			}))
		}
	}
	nextID := len(ms)
	for slice := 0; slice < 24; slice++ {
		for j := 0; j < 20; j++ {
			nextID++
			id := nextID
			e.Defer(100+rng.Float64()*1e4, func() { fired = append(fired, firing{e.Now(), id}) })
		}
		for j := 0; j < 8; j++ {
			m := ms[rng.Intn(len(ms))]
			if m.Active() {
				m.Stop()
			} else {
				m.Resume()
			}
		}
		e.RunUntil(e.Now() + period*rng.Float64()*2)
		probe()
	}
	for _, m := range ms {
		m.Stop()
	}
	e.RunUntil(math.Inf(1))
	return fired
}

// twoPeriodScript runs two CohortTickers with different periods on one
// engine: the 3 s group's re-armed ticks keep landing before the 2 s
// group's lane tail (and vice versa), so ticks fall back to the heap
// while others ride the lane.
func twoPeriodScript(e *Engine, seed int64, probe func()) []firing {
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	for g, period := range []Time{3, 2} {
		ct := NewCohortTicker(e, period)
		for c := 0; c < 40; c++ {
			id := g*1000 + c
			co := ct.NewCohort(period * Time(c) / 40)
			co.Add(func() { fired = append(fired, firing{e.Now(), id}) })
		}
	}
	for slice := 0; slice < 20; slice++ {
		e.RunUntil(e.Now() + 4*rng.Float64())
		probe()
	}
	return fired
}

// tiedGridScript runs cohorts whose grids tie exactly — two cohorts per
// phase, in two groups of one period — with one-shot events pinned to the
// same grid instants and whole cohorts emptied and restarted, so a tie at
// one instant is broken by seq between a lane event and a heap event.
func tiedGridScript(e *Engine, seed int64, probe func()) []firing {
	const period = 2.0
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	var ms []*CohortMember
	for g := 0; g < 2; g++ {
		ct := NewCohortTicker(e, period)
		for c := 0; c < 8; c++ {
			co := ct.NewCohort(0.25 * Time(c%4))
			for i := 0; i < 2; i++ {
				id := len(ms)
				ms = append(ms, co.Add(func() { fired = append(fired, firing{e.Now(), id}) }))
			}
		}
	}
	nextID := len(ms)
	for slice := 0; slice < 30; slice++ {
		// A one-shot event exactly on a shared grid instant.
		k := math.Floor(e.Now()/period) + 1 + Time(rng.Intn(3))
		nextID++
		id := nextID
		e.At(k*period+0.25*Time(rng.Intn(4)), func() { fired = append(fired, firing{e.Now(), id}) })
		// Empty a whole cohort, then restart it.
		c := rng.Intn(len(ms) / 2)
		ms[2*c].Stop()
		ms[2*c+1].Stop()
		e.RunUntil(e.Now() + rng.Float64())
		ms[2*c+1].Resume()
		ms[2*c].Resume()
		e.RunUntil(e.Now() + 2*rng.Float64())
		probe()
	}
	return fired
}

// flapScript flaps cohort members every slice — single members and whole
// cohorts, each Stop and Resume at an off-grid instant — over 64 cohorts,
// so canceled ticks sit in the lane and restarted cohorts re-enter
// through the heap.
func flapScript(e *Engine, seed int64, probe func()) []firing {
	const cohorts, size, period = 64, 4, 1.0
	rng := rand.New(rand.NewSource(seed))
	var fired []firing
	ct := NewCohortTicker(e, period)
	var ms []*CohortMember
	for c := 0; c < cohorts; c++ {
		co := ct.NewCohort(period * Time(c) / cohorts)
		for i := 0; i < size; i++ {
			id := len(ms)
			ms = append(ms, co.Add(func() { fired = append(fired, firing{e.Now(), id}) }))
		}
	}
	for slice := 0; slice < 200; slice++ {
		for j := 0; j < 6; j++ {
			m := ms[rng.Intn(len(ms))]
			if m.Active() {
				m.Stop()
			} else {
				m.Resume()
			}
		}
		if slice%10 == 0 {
			c := rng.Intn(cohorts)
			for _, m := range ms[c*size : (c+1)*size] {
				m.Stop()
			}
			e.RunUntil(e.Now() + 0.3*rng.Float64())
			for _, m := range ms[c*size : (c+1)*size] {
				m.Resume()
			}
		}
		e.RunUntil(e.Now() + 0.5*rng.Float64())
		probe()
	}
	for _, m := range ms {
		m.Stop()
	}
	e.RunUntil(math.Inf(1))
	return fired
}

// laneLen reports how many events the engine's lane holds.
func laneLen(e *Engine) int {
	q := e.q.(*laneQueue)
	return len(q.lane) - q.head
}

// heapTicks reports how many cohort ticks the engine's heap holds.
func heapTicks(e *Engine) int {
	n := 0
	for _, ev := range e.q.(*laneQueue).heap {
		if ev.lane {
			n++
		}
	}
	return n
}

// sameFirings fails t unless the production engine and the reference heap
// engine fired the identical schedule and agree on Processed and the clock.
func sameFirings(t *testing.T, eng, hp *Engine, engFired, hpFired []firing) {
	t.Helper()
	if len(engFired) != len(hpFired) {
		t.Fatalf("engine fired %d events, heap %d", len(engFired), len(hpFired))
	}
	for i := range engFired {
		if engFired[i] != hpFired[i] {
			t.Fatalf("firing %d diverges: engine %+v, heap %+v", i, engFired[i], hpFired[i])
		}
	}
	if eng.Processed() != hp.Processed() {
		t.Fatalf("Processed %d vs %d", eng.Processed(), hp.Processed())
	}
	if eng.Now() != hp.Now() {
		t.Fatalf("final clock %v vs %v", eng.Now(), hp.Now())
	}
}

// TestEngineMatchesHeapQueue is the equivalence contract of the lane
// queue: the same script replayed on the production engine and on the
// reference heap engine must fire the identical (time, id) sequence and
// report identical Processed counts. The same rand seed drives both
// scripts, so every op lands identically. Each scripted row also proves
// it exercised what it is named for: the band keeps at least 1,000 ticks
// in the lane, two periods and restarts push ticks into the heap.
func TestEngineMatchesHeapQueue(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 50; seed++ {
			eng, hp := NewEngine(), newHeapEngine()
			sameFirings(t, eng, hp, opScript(eng, seed, 400), opScript(hp, seed, 400))
		}
	})
	rows := []struct {
		name   string
		script func(e *Engine, seed int64, probe func()) []firing
		// exercised checks the probe's high-water marks of the lane's
		// length and of cohort ticks in the heap.
		exercised func(maxLane, maxHeapTicks int) bool
	}{
		{"cohort-band", cohortBandScript, func(lane, _ int) bool { return lane >= 1000 }},
		{"two-periods", twoPeriodScript, func(lane, heap int) bool { return lane > 0 && heap > 0 }},
		{"tied-grids", tiedGridScript, func(lane, heap int) bool { return lane > 0 && heap > 0 }},
		{"flapping", flapScript, func(lane, heap int) bool { return lane > 0 && heap > 0 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				eng, hp := NewEngine(), newHeapEngine()
				maxLane, maxHeap := 0, 0
				engFired := row.script(eng, seed, func() {
					maxLane = max(maxLane, laneLen(eng))
					maxHeap = max(maxHeap, heapTicks(eng))
				})
				sameFirings(t, eng, hp, engFired, row.script(hp, seed, func() {}))
				if !row.exercised(maxLane, maxHeap) {
					t.Fatalf("seed %d: lane held at most %d events and the heap %d cohort ticks; the row exercises nothing",
						seed, maxLane, maxHeap)
				}
			}
		})
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
		eng, hp := NewEngine(), newHeapEngine()
		sameFirings(t, eng, hp, opScript(eng, seed, 200), opScript(hp, seed, 200))
	})
}

// TestTightBurstKeepsOrder: nine events in an 8ms band, one just past it
// and one far out must fire in exact time order, matching the reference
// heap.
func TestTightBurstKeepsOrder(t *testing.T) {
	eng := NewEngine()
	hp := newHeapEngine()
	run := func(e *Engine) []Time {
		var fired []Time
		rec := func() { fired = append(fired, e.Now()) }
		for i := 0; i < 9; i++ {
			e.At(1.0+0.001*float64(i), rec)
		}
		e.At(1.05, rec)
		e.At(30, rec)
		e.RunUntil(math.Inf(1))
		return fired
	}
	engFired, hpFired := run(eng), run(hp)
	if len(engFired) != len(hpFired) {
		t.Fatalf("engine fired %d events, heap %d", len(engFired), len(hpFired))
	}
	for i := range engFired {
		if engFired[i] != hpFired[i] {
			t.Fatalf("firing %d diverges: engine %v, heap %v", i, engFired[i], hpFired[i])
		}
		if i > 0 && engFired[i] < engFired[i-1] {
			t.Fatalf("time went backwards: %v after %v", engFired[i], engFired[i-1])
		}
	}
}

// TestFarFutureTailKeepsOrder: a dense near band plus a thin far tail
// and one extreme outlier must come out in exact time order.
func TestFarFutureTailKeepsOrder(t *testing.T) {
	e := NewEngine()
	var times []Time
	rec := func() { times = append(times, e.Now()) }
	for i := 0; i < 200; i++ {
		e.Schedule(float64(i)*0.05, rec) // dense band within ~10s
	}
	for i := 0; i < 20; i++ {
		e.Schedule(1e4+float64(i)*1e3, rec) // far tail
	}
	e.Schedule(1e8, rec) // extreme outlier
	e.RunUntil(math.Inf(1))
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

// TestPendingCountUnderLoad pushes 5,000 events and drains them,
// verifying the pending count on the way up and down.
func TestPendingCountUnderLoad(t *testing.T) {
	e := NewEngine()
	const n = 5000
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(float64((i*31)%997)/10, func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
	e.RunUntil(math.Inf(1))
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
		e.RunUntil(math.Inf(1))
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
		e.RunUntil(math.Inf(1))
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

// TestGapThenEarlySchedule: popping a canceled far-future event leaves
// the clock at 0; an event scheduled near the present afterwards must
// still fire, at its own time.
func TestGapThenEarlySchedule(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1e5, func() {})
	e.Cancel(ev)
	e.RunUntil(math.Inf(1)) // pops the canceled far event; clock stays 0
	if e.Now() != 0 {
		t.Fatalf("clock %v, want 0", e.Now())
	}
	fired := false
	e.Schedule(5, func() { fired = true })
	e.RunUntil(math.Inf(1))
	if !fired {
		t.Fatal("near-present event lost after the gap")
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
}
