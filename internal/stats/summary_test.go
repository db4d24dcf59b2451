package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	wantStd := math.Sqrt(1.25) // population std of 1..4
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("expected empty summary, got %+v", s)
	}
}

func TestSummaryCV(t *testing.T) {
	s := Summarize([]float64{10, 10, 10})
	if s.CV() != 0 {
		t.Fatalf("constant sample should have CV 0, got %v", s.CV())
	}
	z := Summarize([]float64{-1, 1})
	if !math.IsNaN(z.CV()) {
		t.Fatalf("zero-mean CV should be NaN, got %v", z.CV())
	}
}

func TestGeometricMean(t *testing.T) {
	if g := GeometricMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GM(1,4) = %v, want 2", g)
	}
	if !math.IsNaN(GeometricMean(nil)) {
		t.Fatal("GM of empty should be NaN")
	}
	if !math.IsNaN(GeometricMean([]float64{1, 0})) {
		t.Fatal("GM with zero should be NaN")
	}
}

func TestGeometricMeanBoundsProperty(t *testing.T) {
	// min <= GM <= max, and GM <= AM for positive samples.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			v := math.Abs(x)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		gm := GeometricMean(xs)
		s := Summarize(xs)
		const eps = 1e-9
		return gm >= s.Min-eps && gm <= s.Max+eps && gm <= s.Mean+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPercentile pins ECDF.Quantile, the one quantile the package keeps,
// on a small sample: the ends, the median, a lower quartile, NaN for an
// empty sample, and the caller's slice left in its order.
func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	e := NewECDF(xs)
	if p := e.Quantile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := e.Quantile(1); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := e.Quantile(0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := e.Quantile(0.25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	if !math.IsNaN(NewECDF(nil).Quantile(0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
	if xs[0] != 5 || xs[4] != 4 {
		t.Fatal("NewECDF mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		e := NewECDF(raw)
		return e.Quantile(qa) <= e.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryIncrementalMatchesBatch(t *testing.T) {
	g := NewRNG(11)
	xs := sampleN(Uniform{Lo: 0, Hi: 100}, g, 1000)
	var inc Summary
	for _, x := range xs {
		inc.Add(x)
	}
	inc.Finalize()
	batch := Summarize(xs)
	if inc.Mean != batch.Mean || inc.Std != batch.Std || inc.Min != batch.Min || inc.Max != batch.Max {
		t.Fatalf("incremental %+v != batch %+v", inc, batch)
	}
}

func TestECDFQuantileRoundTrip(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	e := NewECDF(xs)
	for _, x := range xs {
		q := e.At(x)
		if got := e.Quantile(q); got > x {
			t.Fatalf("Quantile(At(%v)) = %v exceeds input", x, got)
		}
	}
	if e.At(9) != 0 {
		t.Fatalf("At(9) = %v, want 0", e.At(9))
	}
	if e.At(50) != 1 {
		t.Fatalf("At(50) = %v, want 1", e.At(50))
	}
}

func TestECDFPointsMonotone(t *testing.T) {
	g := NewRNG(12)
	e := NewECDF(sampleN(Exponential{Lambda: 1}, g, 500))
	pts := e.Points(21)
	if len(pts) != 21 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatalf("non-monotone CDF points at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestECDFAgainstSorted(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		e := NewECDF(raw)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		// The median element must have At >= 0.5.
		mid := sorted[(len(sorted)-1)/2]
		return e.At(mid) >= 0.5-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
