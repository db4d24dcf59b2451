package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// step runs exactly one pending non-canceled event, if any, and reports
// whether one ran.
func step(e *Engine) bool { return e.RunUntilOutcome(math.Inf(1), e.Processed()+1) != RunDrained }

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.RunUntil(math.Inf(1))
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("clock %v, want 3", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunUntil(math.Inf(1))
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break violated FIFO at position %d: %v", i, order[i])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.RunUntil(math.Inf(1))
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested times %v", times)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(10, func() { fired++ })
	e.RunUntil(5)
	if fired != 1 {
		t.Fatalf("fired %d events before t=5, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
	e.RunUntil(math.Inf(1))
	if fired != 2 {
		t.Fatalf("fired %d after full run, want 2", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.RunUntil(math.Inf(1))
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
	e.Cancel(nil) // must not panic
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntil(math.Inf(1))
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending %d, want 7", e.Pending())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !step(e) || count != 1 {
		t.Fatalf("first step: count=%d", count)
	}
	if !step(e) || count != 2 {
		t.Fatalf("second step: count=%d", count)
	}
	if step(e) {
		t.Fatal("step on empty queue returned true")
	}
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePanicsOnPastAt(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.RunUntil(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(1, func() {})
}

func TestEnginePanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.RunUntil(math.Inf(1))
	if e.Processed() != 7 {
		t.Fatalf("processed %d, want 7", e.Processed())
	}
}

func TestEngineEventOrderProperty(t *testing.T) {
	// For any multiset of delays, events must fire in non-decreasing time
	// order and the final clock equals the max delay.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		var maxT Time
		for _, d := range raw {
			delay := float64(d) / 100
			if delay > maxT {
				maxT = delay
			}
			e.Schedule(delay, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunUntil(math.Inf(1))
		if !sort.Float64sAreSorted(fireTimes) {
			return false
		}
		return e.Now() == maxT && len(fireTimes) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilInfinityDrains(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.RunUntil(math.Inf(1))
	if n != 1 {
		t.Fatal("RunUntil(+inf) did not drain")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := NewTicker(e, 2, func() { ticks = append(ticks, e.Now()) })
	tk.Start(0)
	e.RunUntil(7)
	want := []Time{2, 4, 6}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerPhaseOffset(t *testing.T) {
	e := NewEngine()
	var first Time = -1
	tk := NewTicker(e, 2, func() {
		if first < 0 {
			first = e.Now()
		}
	})
	tk.Start(0.5)
	e.RunUntil(3)
	if first != 2.5 {
		t.Fatalf("first tick at %v, want 2.5", first)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	tk.Start(0)
	e.RunUntil(100)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", count)
	}
	if tk.Active() {
		t.Fatal("ticker still active after Stop")
	}
}

func TestTickerDoubleStartIsNoop(t *testing.T) {
	e := NewEngine()
	count := 0
	tk := NewTicker(e, 1, func() { count++ })
	tk.Start(0)
	tk.Start(0)
	e.RunUntil(2.5)
	if count != 2 {
		t.Fatalf("double-start ticker fired %d times in 2.5s, want 2", count)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTicker(NewEngine(), 0, func() {})
}

// TestEngineRejectsBadInstants: every entry point that takes an instant
// or a delay panics on NaN and on the past, so the pending set only ever
// orders real times at or after the clock.
func TestEngineRejectsBadInstants(t *testing.T) {
	nan := math.NaN()
	nop := func() {}
	rows := []struct {
		name string
		call func(e *Engine)
	}{
		{"Schedule NaN", func(e *Engine) { e.Schedule(nan, nop) }},
		{"Schedule negative", func(e *Engine) { e.Schedule(-1, nop) }},
		{"At NaN", func(e *Engine) { e.At(nan, nop) }},
		{"At past", func(e *Engine) { e.At(1, nop) }},
		{"Defer NaN", func(e *Engine) { e.Defer(nan, nop) }},
		{"DeferAt NaN", func(e *Engine) { e.DeferAt(nan, nop) }},
		{"DeferAt past", func(e *Engine) { e.DeferAt(1, nop) }},
		{"DeferTag NaN", func(e *Engine) { e.DeferTag(nan, Owned, nop) }},
		{"DeferAtTag NaN", func(e *Engine) { e.DeferAtTag(nan, Owned, nop) }},
		{"DeferAtTag past", func(e *Engine) { e.DeferAtTag(1, Owned, nop) }},
		{"ScheduleTag NaN", func(e *Engine) { e.ScheduleTag(nan, Owned, nop) }},
		{"RescheduleAt NaN", func(e *Engine) {
			ev := e.Schedule(0, nop)
			step(e)
			e.RescheduleAt(ev, nan)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := NewEngine()
			e.RunUntil(2)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
				if e.Pending() != 0 {
					t.Fatalf("%d events entered the pending set", e.Pending())
				}
			}()
			row.call(e)
		})
	}
}
