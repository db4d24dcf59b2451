package sim

import (
	"testing"
)

// TestTickerDistinctPhasesNeverCollide pins the de-synchronization
// property the cohort stride assignment depends on: tickers sharing a
// period but started with distinct phase offsets in [0, period) fire on
// disjoint grids — no two ever share an instant. The phases exercised are
// the tracker's own scheme (interval·i/n), where float64 division could
// plausibly round two offsets together; the test proves it does not for
// cluster-sized n.
func TestTickerDistinctPhasesNeverCollide(t *testing.T) {
	const (
		period = 0.25
		n      = 100
		horiz  = 50.0
	)
	e := NewEngine()
	fired := make(map[Time]int) // instant -> ticker that fired there
	for i := 0; i < n; i++ {
		i := i
		tk := NewTicker(e, period, func() {
			if prev, ok := fired[e.Now()]; ok && prev != i {
				t.Fatalf("tickers %d and %d collided at t=%v", prev, i, e.Now())
			}
			fired[e.Now()] = i
		})
		tk.Start(period * float64(i) / float64(n))
	}
	e.RunUntil(horiz)
	if len(fired) < n*int(horiz/period)-n {
		t.Fatalf("only %d distinct instants recorded", len(fired))
	}
}

// TestTickerResumeRejoinsGrid verifies Resume lands on the original
// anchor's grid — the first instant strictly after now — rather than one
// full period from the resume time.
func TestTickerResumeRejoinsGrid(t *testing.T) {
	e := NewEngine()
	var times []Time
	tk := NewTicker(e, 1, func() { times = append(times, e.Now()) })
	tk.Start(0.5) // grid: 1.5, 2.5, 3.5, ...
	e.RunUntil(2)
	tk.Stop()
	e.RunUntil(4.1)
	tk.Resume() // next grid instant after 4.1 is 4.5
	e.RunUntil(6)
	want := []Time{1.5, 4.5, 5.5}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

// cohortFiring is one observed callback invocation: which member fired at what
// instant. Differential tests compare complete cohortFiring sequences with ==
// on the float64 times, so per-node and cohort schedules must agree bit
// for bit, not approximately.
type cohortFiring struct {
	at Time
	id int
}

// runTickerArm drives n per-node tickers sharing quantized cohort phases
// through a stop/resume script and returns the cohortFiring sequence.
func runTickerArm(script func(e *Engine, stop, resume func(id int))) []cohortFiring {
	const n, cohorts, period = 12, 3, 0.25
	e := NewEngine()
	var got []cohortFiring
	tks := make([]*Ticker, n)
	for i := 0; i < n; i++ {
		i := i
		tks[i] = NewTicker(e, period, func() { got = append(got, cohortFiring{e.Now(), i}) })
	}
	for i := 0; i < n; i++ {
		tks[i].Start(period * float64(i/(n/cohorts)) / float64(cohorts))
	}
	script(e,
		func(id int) { tks[id].Stop() },
		func(id int) { tks[id].Resume() })
	e.RunUntil(20)
	return got
}

// uniformLayout lays out cohorts cohorts of size members each: member id
// belongs to cohort id/size, and cohort c runs on phase period·c/cohorts.
func uniformLayout(cohorts, size int, period Time) (phases []Time, cohortOf []int) {
	phases = make([]Time, cohorts)
	for c := range phases {
		phases[c] = period * Time(c) / Time(cohorts)
	}
	cohortOf = make([]int, cohorts*size)
	for id := range cohortOf {
		cohortOf[id] = id / size
	}
	return phases, cohortOf
}

// runCohortArm drives the same membership through a CohortTicker.
func runCohortArm(script func(e *Engine, stop, resume func(id int))) []cohortFiring {
	const n, cohorts, period = 12, 3, 0.25
	e := NewEngine()
	var got []cohortFiring
	phases, cohortOf := uniformLayout(cohorts, n/cohorts, period)
	ct := NewCohortTicker(e, period, phases, cohortOf, func(id int) { got = append(got, cohortFiring{e.Now(), id}) })
	for id := range cohortOf {
		ct.Add(id)
	}
	script(e, ct.Stop, ct.Resume)
	e.RunUntil(20)
	return got
}

// TestCohortMatchesPerNodeTickers is the sim-level differential: twelve
// members in three cohorts, flapped at off-grid instants, must produce an
// identical (time, member) cohortFiring sequence whether driven by twelve
// independent tickers or three coalesced cohort events.
func TestCohortMatchesPerNodeTickers(t *testing.T) {
	script := func(e *Engine, stop, resume func(id int)) {
		e.Schedule(1.03, func() { stop(5) })
		e.Schedule(1.07, func() { stop(6); stop(0) })
		e.Schedule(2.11, func() { resume(5) })
		e.Schedule(3.009, func() { resume(0); resume(6) })
		e.Schedule(4.5001, func() { stop(11); stop(4) })
		e.Schedule(9.99, func() { resume(4) })
		// Flap within a single inter-tick gap: net effect is a tail move.
		e.Schedule(12.01, func() { stop(2); resume(2) })
	}
	a := runTickerArm(script)
	b := runCohortArm(script)
	if len(a) != len(b) {
		t.Fatalf("per-node fired %d times, cohort %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cohortFiring %d diverged: per-node %+v, cohort %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no firings recorded")
	}
}

// TestCohortFlapBoundsPending extends the 10k-cycle flap regression to
// the cohort path: repeated Stop/Resume churn must neither grow the
// engine's pending set (cohort events are cancelled eagerly and reused)
// nor leak member slots (tombstone compaction reclaims them).
func TestCohortFlapBoundsPending(t *testing.T) {
	for _, qk := range queueKinds {
		e := qk.mk()
		// Member m flaps in cohort 0, where member steady keeps the
		// cohort event alive across flaps. solo's cohort 1 empties on
		// every Stop, so each cycle cancels the cohort event and each
		// Resume must restart it — the canceled-garbage path the engine's
		// compaction sweep has to bound.
		const m, steady, solo = 0, 1, 2
		ct := NewCohortTicker(e, 1000, []Time{0, 0.5}, []int{0, 0, 1}, func(int) {})
		for id := m; id <= solo; id++ {
			ct.Add(id)
		}
		co := &ct.cohorts[0]
		maxPending, maxSlots := 0, 0
		for i := 0; i < 10_000; i++ {
			ct.Stop(m)
			ct.Stop(solo)
			if i%100 == 0 {
				e.RunUntil(e.Now() + 1)
			}
			ct.Resume(m)
			ct.Resume(solo)
			if p := e.Pending(); p > maxPending {
				maxPending = p
			}
			if s := len(co.slots); s > maxSlots {
				maxSlots = s
			}
		}
		if maxPending > 2*compactFloor {
			t.Fatalf("%s: pending grew to %d across 10k stop/resume cycles, want <= %d",
				qk.name, maxPending, 2*compactFloor)
		}
		if maxSlots > 4*cohortCompactFloor {
			t.Fatalf("%s: cohort slots grew to %d across 10k stop/resume cycles, want <= %d",
				qk.name, maxSlots, 4*cohortCompactFloor)
		}
		if !ct.Active(steady) || co.active != 2 {
			t.Fatalf("%s: cohort lost members: active=%d", qk.name, co.active)
		}
	}
}

// TestCohortEmptiesAndRestarts verifies that stopping every member
// cancels the cohort event, and a later Resume rejoins the original grid.
func TestCohortEmptiesAndRestarts(t *testing.T) {
	e := NewEngine()
	var times []Time
	ct := NewCohortTicker(e, 1, []Time{0.5}, []int{0}, func(int) { times = append(times, e.Now()) }) // grid: 1.5, 2.5, ...
	ct.Add(0)
	e.RunUntil(2)
	ct.Stop(0)
	processedAfterStop := e.Processed()
	e.RunUntil(7.9)
	if got := e.Processed(); got != processedAfterStop {
		t.Fatalf("empty cohort still processed %d events", got-processedAfterStop)
	}
	ct.Resume(0) // next grid instant after 7.9 is 8.5
	e.RunUntil(10)
	want := []Time{1.5, 8.5, 9.5}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

// TestCohortSweepSkipsSameInstantResume pins the joined-time guard: a
// member resumed at the exact instant of a pending cohort tick (possible
// when a recovery event shares the timestamp and a lower seq) must stay
// silent for that sweep, because a per-node ticker resumed at T never
// fires at T.
func TestCohortSweepSkipsSameInstantResume(t *testing.T) {
	e := NewEngine()
	var times []Time
	ct := NewCohortTicker(e, 1, []Time{0}, []int{0, 0}, func(id int) {
		if id == 0 {
			times = append(times, e.Now())
		}
	})
	ct.Add(0)
	e.RunUntil(1.5)
	ct.Stop(0)
	// Schedule the resume at t=3 — the same instant as the cohort tick.
	// Member 1 keeps the cohort event alive so the tick still fires.
	ct.Add(1)
	e.Schedule(3-e.Now(), func() { ct.Resume(0) })
	e.RunUntil(5)
	want := []Time{1, 4, 5}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

// TestCohortSweepAllocatesNothing verifies the steady-state fast path: a
// full cohort sweep re-enqueues its own event struct and walks the member
// slice with zero allocations per tick.
func TestCohortSweepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ticks := 0
	phases, cohortOf := uniformLayout(1, 64, 1)
	ct := NewCohortTicker(e, 1, phases, cohortOf, func(int) { ticks++ })
	for id := range cohortOf {
		ct.Add(id)
	}
	e.RunUntil(10) // warm
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("steady cohort sweep allocates %.2f objects/tick, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("cohort never swept")
	}
}

// gateFuncs is an IdleGate made of two closures.
type gateFuncs struct {
	idle    func() bool
	skipped func(n int)
}

func (g gateFuncs) Idle() bool    { return g.idle() }
func (g gateFuncs) Skipped(n int) { g.skipped(n) }

// runGateArm drives two cohorts of four through a flap script that
// includes Resumes landing exactly on tick instants, and returns, per
// tick instant, how many members the tick ran or its idle gate reported
// skipping, plus how many ticks the gate took. gated decides, per tick,
// whether the gate holds; nil installs no gate. The two cohorts' grids
// are disjoint, so an instant names one cohort's tick.
func runGateArm(gated func(tick int) bool) (beats map[Time]int, gatedTicks int, processed uint64) {
	e := NewEngine()
	beats = make(map[Time]int)
	// Members 0-3 form cohort 0 on phase 0, members 4-7 cohort 1 on 0.5.
	ct := NewCohortTicker(e, 1, []Time{0, 0.5}, []int{0, 0, 0, 0, 1, 1, 1, 1}, func(int) { beats[e.Now()]++ })
	if gated != nil {
		ticks := 0
		ct.SetIdleGate(gateFuncs{func() bool {
			ticks++
			return gated(ticks)
		}, func(n int) {
			beats[e.Now()] += n
			gatedTicks++
		}})
	}
	for id := 0; id < 8; id++ {
		ct.Add(id)
	}
	e.Schedule(1.2, func() { ct.Stop(1); ct.Stop(5) })
	// Resumes at t=3 and t=3.5, the instants of pending ticks of cohorts
	// 0 and 1, scheduled before those ticks so they run first.
	e.At(3, func() { ct.Resume(1) })
	e.At(3.5, func() { ct.Resume(5) })
	e.Schedule(5.2, func() { ct.Stop(6) })
	e.RunUntil(8)
	return beats, gatedTicks, e.Processed()
}

// TestCohortIdleGateCountsWhatTheSweepRuns is the idle gate's unit
// differential: whether the gate holds on every tick, on alternate ticks,
// or never, each tick reports exactly the members the full sweep runs —
// including the ticks where a member resumed at that very instant (the
// joined == now case, which the sweep skips) — and the engine processes
// the same number of events.
func TestCohortIdleGateCountsWhatTheSweepRuns(t *testing.T) {
	ref, _, refProcessed := runGateArm(nil)
	if ref[3] != 3 || ref[3.5] != 3 || ref[4] != 4 {
		t.Fatalf("ungated sweeps ran %v members at t=3, 3.5, 4; want 3, 3, 4", []int{ref[3], ref[3.5], ref[4]})
	}
	for _, arm := range []struct {
		name  string
		gated func(int) bool
	}{
		{"never", func(int) bool { return false }},
		{"always", func(int) bool { return true }},
		{"alternate", func(k int) bool { return k%2 == 0 }},
	} {
		got, gatedTicks, processed := runGateArm(arm.gated)
		if processed != refProcessed {
			t.Errorf("%s: engine processed %d events, the ungated sweep %d", arm.name, processed, refProcessed)
		}
		if (gatedTicks == 0) != (arm.name == "never") {
			t.Errorf("%s: the gate took %d ticks", arm.name, gatedTicks)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d tick instants, ungated %d", arm.name, len(got), len(ref))
		}
		for at, n := range ref {
			if got[at] != n {
				t.Errorf("%s: tick at t=%v reported %d members, the sweep ran %d", arm.name, at, got[at], n)
			}
		}
	}
}
