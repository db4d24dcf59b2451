package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleN(d Dist, g *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(g)
	}
	return xs
}

func TestConstant(t *testing.T) {
	g := NewRNG(1)
	c := Constant{V: 3.5}
	for i := 0; i < 10; i++ {
		if c.Sample(g) != 3.5 {
			t.Fatal("Constant returned non-constant value")
		}
	}
	if c.Mean() != 3.5 {
		t.Fatal("Constant mean mismatch")
	}
}

func TestUniformMoments(t *testing.T) {
	g := NewRNG(2)
	u := Uniform{Lo: 2, Hi: 6}
	s := Summarize(sampleN(u, g, 50000))
	if math.Abs(s.Mean-4) > 0.05 {
		t.Fatalf("uniform mean %v, want ~4", s.Mean)
	}
	if s.Min < 2 || s.Max >= 6 {
		t.Fatalf("uniform out of range: [%v, %v]", s.Min, s.Max)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(3)
	e := Exponential{Lambda: 0.5}
	s := Summarize(sampleN(e, g, 100000))
	if math.Abs(s.Mean-2) > 0.05 {
		t.Fatalf("exponential mean %v, want ~2", s.Mean)
	}
	if e.Mean() != 2 {
		t.Fatalf("Mean() = %v, want 2", e.Mean())
	}
}

func TestNormalTruncation(t *testing.T) {
	g := NewRNG(4)
	n := Normal{Mu: 157.8, Sigma: 8.02, Min: 145.3, Max: 167.0}
	for i := 0; i < 10000; i++ {
		v := n.Sample(g)
		if v < 145.3 || v > 167.0 {
			t.Fatalf("truncated normal escaped bounds: %v", v)
		}
	}
}

func TestNormalUntruncatedMoments(t *testing.T) {
	g := NewRNG(5)
	n := Normal{Mu: 10, Sigma: 2}
	s := Summarize(sampleN(n, g, 100000))
	if math.Abs(s.Mean-10) > 0.05 || math.Abs(s.Std-2) > 0.05 {
		t.Fatalf("normal moments mean=%v std=%v, want 10/2", s.Mean, s.Std)
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	// Table II EC2 disk bandwidth: mean 141.5, sd 74.2.
	ln := LogNormalFromMoments(141.5, 74.2)
	g := NewRNG(6)
	s := Summarize(sampleN(ln, g, 200000))
	if math.Abs(s.Mean-141.5) > 2.5 {
		t.Fatalf("lognormal mean %v, want ~141.5", s.Mean)
	}
	if math.Abs(s.Std-74.2) > 4 {
		t.Fatalf("lognormal std %v, want ~74.2", s.Std)
	}
	if math.Abs(ln.Mean()-141.5) > 1e-6 {
		t.Fatalf("analytic mean %v, want 141.5", ln.Mean())
	}
}

func TestLogNormalFromMomentsPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mean <= 0")
		}
	}()
	LogNormalFromMoments(0, 1)
}

func TestParetoTail(t *testing.T) {
	g := NewRNG(7)
	p := Pareto{Xm: 1, Alpha: 2}
	s := Summarize(sampleN(p, g, 200000))
	if s.Min < 1 {
		t.Fatalf("pareto sample below scale: %v", s.Min)
	}
	if math.Abs(s.Mean-2) > 0.1 {
		t.Fatalf("pareto mean %v, want ~2", s.Mean)
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1}.Mean(), 1) {
		t.Fatal("pareto alpha<=1 should have infinite mean")
	}
}

func TestBoundedParetoRange(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		b := BoundedPareto{L: 1, H: 100, Alpha: 1.2}
		for i := 0; i < 100; i++ {
			v := b.Sample(g)
			if v < 1-1e-9 || v > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedParetoMeanMatchesEmpirical(t *testing.T) {
	g := NewRNG(8)
	b := BoundedPareto{L: 2, H: 64, Alpha: 1.5}
	s := Summarize(sampleN(b, g, 300000))
	if math.Abs(s.Mean-b.Mean())/b.Mean() > 0.03 {
		t.Fatalf("bounded pareto empirical mean %v vs analytic %v", s.Mean, b.Mean())
	}
}

func TestMixtureWeights(t *testing.T) {
	g := NewRNG(9)
	m := Mixture{
		Weights:    []float64{3, 1},
		Components: []Dist{Constant{V: 0}, Constant{V: 1}},
	}
	var ones int
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(g) == 1 {
			ones++
		}
	}
	p := float64(ones) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("mixture picked second component %v of the time, want ~0.25", p)
	}
	if math.Abs(m.Mean()-0.25) > 1e-12 {
		t.Fatalf("mixture mean %v, want 0.25", m.Mean())
	}
}

func TestZipfBasics(t *testing.T) {
	z := NewZipf(100, 1.1, 0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	if z.CDF(100) != 1 {
		t.Fatalf("CDF(N) = %v, want 1", z.CDF(100))
	}
	if z.CDF(0) != 0 {
		t.Fatal("CDF(0) should be 0")
	}
	if zipfProb(z, 1) <= zipfProb(z, 2) {
		t.Fatal("rank 1 should be more probable than rank 2")
	}
	var sum float64
	for k := 1; k <= 100; k++ {
		sum += zipfProb(z, k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// zipfProb is P(rank = k), read off the CDF.
func zipfProb(z *Zipf, k int) float64 { return z.CDF(k) - z.CDF(k-1) }

func TestZipfSamplingSkew(t *testing.T) {
	z := NewZipf(1000, 1.2, 0)
	g := NewRNG(10)
	var counter IntCounter
	for i := 0; i < 200000; i++ {
		counter.Add(z.Rank(g))
	}
	// Empirical frequency of rank 1 should be within 10% of theory.
	emp := counter.Fraction(1)
	theory := zipfProb(z, 1)
	if math.Abs(emp-theory)/theory > 0.1 {
		t.Fatalf("rank-1 empirical %v vs theory %v", emp, theory)
	}
	// Heavy tail: the top 10 ranks must dominate the next 990.
	if z.CDF(10) < 0.5 {
		t.Fatalf("top-10 mass %v; expected heavy head for s=1.2", z.CDF(10))
	}
}

func TestZipfRankInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		z := NewZipf(37, 0.9, 1.5)
		for i := 0; i < 200; i++ {
			r := z.Rank(g)
			if r < 1 || r > 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	z := NewZipf(64, 1.0, 0.5)
	prev := 0.0
	for k := 1; k <= 64; k++ {
		c := z.CDF(k)
		if c < prev {
			t.Fatalf("CDF not monotone at rank %d: %v < %v", k, c, prev)
		}
		prev = c
	}
}

func TestZipfPanicsOnInvalidN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 1")
		}
	}()
	NewZipf(0, 1, 0)
}
