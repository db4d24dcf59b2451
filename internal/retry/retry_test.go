package retry

import (
	"math"
	"testing"
)

// TestDelayDoubling pins the base progression: attempt n waits Base·2ⁿ
// until the cap cuts in, then every later attempt waits exactly Cap.
func TestDelayDoubling(t *testing.T) {
	for _, row := range []struct {
		name string
		b    Backoff
		want []float64
	}{
		{"capped", Backoff{Base: 0.5, Cap: 8}, []float64{0.5, 1, 2, 4, 8, 8, 8}},
		// A killed map task's requeue: 1, 2, 4, ... heartbeat intervals
		// (0.25 s on the built-in profiles), uncapped.
		{"requeue", Backoff{Base: 0.25, Cap: math.MaxFloat64}, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}},
	} {
		for n, w := range row.want {
			if got := row.b.Delay(n); got != w {
				t.Errorf("%s: Delay(%d) = %g, want %g", row.name, n, got, w)
			}
		}
	}
}

// TestDelayMatchesGrayReadCore replays the exact expression grayRead
// used before the factor-out, across a sweep of attempts including the
// shift-overflow region, and demands bit-identical results.
func TestDelayMatchesGrayReadCore(t *testing.T) {
	legacy := func(base, cap float64, attempt int) float64 {
		backoff := base * float64(int64(1)<<uint(attempt))
		if backoff > cap || backoff <= 0 {
			backoff = cap
		}
		return backoff
	}
	cases := []Backoff{
		{Base: 1.5, Cap: 12},
		{Base: 0.001, Cap: 1e9},
		{Base: 3, Cap: 3}, // cap == base: saturates immediately
	}
	for _, b := range cases {
		for attempt := 0; attempt < 80; attempt++ {
			got := b.Delay(attempt)
			want := legacy(b.Base, b.Cap, attempt)
			if got != want || math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("Backoff%+v.Delay(%d) = %g, legacy core = %g", b, attempt, got, want)
			}
		}
	}
}

// TestDelayOverflowPinsAtCap exercises the int64 shift wrap: at attempt
// 63 the multiplier goes negative and at 64 it wraps to 1<<0 via the
// uint conversion on some older formulations — the guard must pin every
// overflowing attempt at Cap, never return a negative or zero delay.
func TestDelayOverflowPinsAtCap(t *testing.T) {
	b := Backoff{Base: 2, Cap: 100}
	for attempt := 60; attempt < 130; attempt++ {
		got := b.Delay(attempt)
		if got <= 0 {
			t.Fatalf("Delay(%d) = %g, want positive (cap)", attempt, got)
		}
		if got > b.Cap {
			t.Fatalf("Delay(%d) = %g exceeds cap %g", attempt, got, b.Cap)
		}
	}
	if got := b.Delay(63); got != b.Cap {
		t.Errorf("Delay(63) = %g, want cap %g (negative multiplier)", got, b.Cap)
	}
}
