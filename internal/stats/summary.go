package stats

import (
	"fmt"
	"math"
)

// Summary holds the descriptive statistics the paper reports in its tables
// (Tables I and II give min/mean/max/σ) plus the coefficient of variation
// of Fig. 11. GMTT's geometric mean is GeometricMean.
type Summary struct {
	N          int
	Min, Max   float64
	Mean, Std  float64
	sum, sumSq float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	s.Finalize()
	return s
}

// Add accumulates one observation. Call Finalize before reading the derived
// fields.
func (s *Summary) Add(x float64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N++
	s.sum += x
	s.sumSq += x * x
}

// Finalize computes Mean and Std from the accumulated
// observations. It is idempotent.
func (s *Summary) Finalize() {
	if s.N == 0 {
		return
	}
	n := float64(s.N)
	s.Mean = s.sum / n
	// Population variance; guard tiny negatives from float cancellation.
	v := s.sumSq/n - s.Mean*s.Mean
	if v < 0 {
		v = 0
	}
	s.Std = math.Sqrt(v)
}

// CV reports the coefficient of variation σ/|μ| (paper §V-A, Fig. 11).
// It returns NaN when the mean is zero.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return math.NaN()
	}
	return s.Std / math.Abs(s.Mean)
}

// String renders the summary in the min/mean/max/σ layout of the paper's
// Tables I and II.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.2f mean=%.2f max=%.2f std=%.2f (n=%d)", s.Min, s.Mean, s.Max, s.Std, s.N)
}

// GeometricMean computes the geometric mean of xs, the aggregation the
// paper uses for turnaround time (GMTT, eq. 1). It returns NaN if any
// observation is non-positive or the slice is empty.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// CoefficientOfVariation is a convenience over Summarize(xs).CV().
func CoefficientOfVariation(xs []float64) float64 {
	return Summarize(xs).CV()
}
