package sim

import (
	"math"
	"testing"
)

// BenchmarkScheduleRun measures the pending-set hot path: schedule and
// drain batches of events, the core cost of every simulation.
func BenchmarkScheduleRun(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < batch; j++ {
			e.Schedule(float64(j%17), func() {})
		}
		e.RunUntil(math.Inf(1))
	}
	b.ReportMetric(float64(batch), "events/iter")
}

// BenchmarkNestedScheduling measures the common simulation pattern of
// events scheduling follow-up events (task completion chains).
func BenchmarkNestedScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		depth := 0
		var chain func()
		chain = func() {
			depth++
			if depth < 1000 {
				e.Schedule(1, chain)
			}
		}
		e.Schedule(1, chain)
		e.RunUntil(math.Inf(1))
	}
}

// BenchmarkCancel measures cancellation overhead, including the threshold
// compaction sweep that a mass cancel triggers.
func BenchmarkCancel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		evs := make([]*Event, 512)
		for j := range evs {
			evs[j] = e.Schedule(float64(j), func() {})
		}
		for _, ev := range evs {
			e.Cancel(ev)
		}
		e.RunUntil(math.Inf(1))
	}
}

// BenchmarkTickerSteady measures the periodic fast path: many concurrent
// singleton heartbeat cohorts rescheduling their events in place, the
// heartbeat-dominated profile of a paper-scale cluster run.
func BenchmarkTickerSteady(b *testing.B) {
	const tickers = 256
	b.ReportAllocs()
	e := NewEngine()
	phases, cohortOf := uniformLayout(tickers, 1, 1)
	ct := NewCohortTicker(e, 3, phases, cohortOf, func(int) {})
	for j := range cohortOf {
		ct.Add(j)
	}
	e.RunUntil(10) // warm-up: structs allocated, lane storage grown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 3) // one full period: every cohort fires once
	}
	b.ReportMetric(tickers, "events/iter")
}

// BenchmarkMixedWorkload interleaves one-shot events, far-future events,
// and cancels on top of a steady heartbeat population — the closest
// synthetic to a real cluster run's event mix.
func BenchmarkMixedWorkload(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	phases, cohortOf := uniformLayout(64, 1, 1)
	ct := NewCohortTicker(e, 3, phases, cohortOf, func(int) {})
	for j := range cohortOf {
		ct.Add(j)
	}
	e.RunUntil(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			e.Defer(float64(j%5)+0.1, func() {})
		}
		ev := e.Schedule(1e4, func() {}) // far-future, lands in the heap
		e.Cancel(ev)
		e.RunUntil(e.Now() + 3)
	}
}

// phaseSpreadBand builds the heartbeat band of a 10k-node cluster: 1,250
// cohorts of eight members (the tracker's auto-scaled stride) on phases
// spread evenly over one period, warmed until the lane storage settles.
func phaseSpreadBand() (e *Engine, period Time) {
	const cohorts, size = 1250, 8
	period = 3
	e = NewEngine()
	phases, cohortOf := uniformLayout(cohorts, size, period)
	ct := NewCohortTicker(e, period, phases, cohortOf, func(int) {})
	for id := range cohortOf {
		ct.Add(id)
	}
	e.RunUntil(20 * period)
	return e, period
}

// BenchmarkPhaseSpreadCohort10k measures one heartbeat period of a
// 10k-node cluster's cohort band: 1,250 cohort ticks riding the pending
// set's lane, each sweeping eight members. Steady state allocates nothing
// (TestPhaseSpreadBandAllocatesNothing).
func BenchmarkPhaseSpreadCohort10k(b *testing.B) {
	e, period := phaseSpreadBand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + period)
	}
	b.ReportMetric(1250, "events/iter")
}

// TestPhaseSpreadBandAllocatesNothing pins BenchmarkPhaseSpreadCohort10k's
// contract: a steady period of the band, lane slides included, allocates
// nothing.
func TestPhaseSpreadBandAllocatesNothing(t *testing.T) {
	e, period := phaseSpreadBand()
	if n := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + period) }); n != 0 {
		t.Fatalf("a steady band period allocates %.1f times", n)
	}
}
