package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. It backs the paper's CDF figures (Fig. 3 age-at-access, Fig. 6
// access pattern) and the locality/TT distribution reporting.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts xs. An empty sample is allowed; all queries on
// it return NaN.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N reports the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At reports P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of first element > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile reports the smallest x with P(X <= x) >= q.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Points samples the ECDF at n evenly spaced quantiles, returning (x, q)
// pairs suitable for printing a CDF series the way the paper's figures do.
func (e *ECDF) Points(n int) []CDFPoint {
	if n < 2 || len(e.sorted) == 0 {
		return nil
	}
	pts := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts[i] = CDFPoint{X: e.Quantile(q), P: q}
	}
	return pts
}

// CDFPoint is one (x, P(X<=x)) sample of a distribution curve.
type CDFPoint struct {
	X float64
	P float64
}
