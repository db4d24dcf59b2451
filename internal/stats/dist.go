package stats

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a real-valued distribution that can be sampled from an RNG.
type Dist interface {
	// Sample draws one variate using g.
	Sample(g *RNG) float64
	// Mean reports the theoretical mean where defined, or an estimate.
	Mean() float64
}

// Constant is the degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(g *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*g.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential has rate Lambda (mean 1/Lambda).
type Exponential struct{ Lambda float64 }

// Sample implements Dist.
func (e Exponential) Sample(g *RNG) float64 { return g.ExpFloat64() / e.Lambda }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Normal is the Gaussian distribution with the given Mu and Sigma,
// optionally truncated to [Min, Max] when Max > Min (both zero disables
// truncation). Truncation is by resampling with a rejection cap, falling
// back to clamping; the bias is negligible for the mild truncations used
// here (e.g. Table II's disk-bandwidth ranges).
type Normal struct {
	Mu, Sigma float64
	Min, Max  float64
}

// Sample implements Dist.
func (n Normal) Sample(g *RNG) float64 {
	v := n.Mu + n.Sigma*g.NormFloat64()
	if n.Max > n.Min {
		for i := 0; i < 64 && (v < n.Min || v > n.Max); i++ {
			v = n.Mu + n.Sigma*g.NormFloat64()
		}
		v = math.Max(n.Min, math.Min(n.Max, v))
	}
	return v
}

// Mean implements Dist. For truncated normals this is the untruncated mean,
// which is accurate when the truncation is roughly symmetric.
func (n Normal) Mean() float64 { return n.Mu }

// LogNormal is parameterized by the location Mu and scale Sigma of the
// underlying normal; exp(N(Mu, Sigma)) — the canonical heavy-ish tail for
// service times and EC2 performance jitter.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(g *RNG) float64 { return math.Exp(l.Mu + l.Sigma*g.NormFloat64()) }

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LogNormalFromMoments builds a LogNormal whose mean and standard deviation
// match the given (positive) empirical moments. This is how Table II's
// measured bandwidth summaries become samplable models.
func LogNormalFromMoments(mean, sd float64) LogNormal {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: LogNormalFromMoments requires mean > 0, got %v", mean))
	}
	cv2 := (sd * sd) / (mean * mean)
	sigma2 := math.Log(1 + cv2)
	return LogNormal{Mu: math.Log(mean) - sigma2/2, Sigma: math.Sqrt(sigma2)}
}

// Pareto is the (Type I) Pareto distribution with scale Xm and shape Alpha.
// For Alpha <= 1 the mean is infinite; Mean reports +Inf in that case.
type Pareto struct{ Xm, Alpha float64 }

// Sample implements Dist.
func (p Pareto) Sample(g *RNG) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean implements Dist.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// BoundedPareto truncates a Pareto(Xm=L, Alpha) to [L, H]; used for file
// sizes and RTT outliers where physical bounds exist.
type BoundedPareto struct{ L, H, Alpha float64 }

// Sample implements Dist (inverse transform of the truncated CDF).
func (b BoundedPareto) Sample(g *RNG) float64 {
	u := g.Float64()
	la := math.Pow(b.L, b.Alpha)
	ha := math.Pow(b.H, b.Alpha)
	x := -(u*ha - u*la - ha) / (ha * la)
	return math.Pow(x, -1/b.Alpha)
}

// Mean implements Dist.
func (b BoundedPareto) Mean() float64 {
	a := b.Alpha
	if a == 1 {
		return b.L * b.H / (b.H - b.L) * math.Log(b.H/b.L)
	}
	la := math.Pow(b.L, a)
	ha := math.Pow(b.H, a)
	return la / (1 - la/ha) * a / (a - 1) * (1/math.Pow(b.L, a-1) - 1/math.Pow(b.H, a-1))
}

// Mixture samples from Components[i] with probability Weights[i]. Weights
// need not be normalized.
type Mixture struct {
	Weights    []float64
	Components []Dist
}

// Sample implements Dist.
func (m Mixture) Sample(g *RNG) float64 {
	return m.Components[m.pick(g)].Sample(g)
}

func (m Mixture) pick(g *RNG) int {
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	u := g.Float64() * total
	for i, w := range m.Weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(m.Weights) - 1
}

// Mean implements Dist.
func (m Mixture) Mean() float64 {
	var total, acc float64
	for i, w := range m.Weights {
		total += w
		acc += w * m.Components[i].Mean()
	}
	return acc / total
}

// Clamped restricts another distribution to [Lo, Hi] by clamping samples.
// It models physically bounded measurements (e.g. Table II's bandwidth
// ranges) without distorting the body of the distribution.
type Clamped struct {
	D      Dist
	Lo, Hi float64
}

// Sample implements Dist.
func (c Clamped) Sample(g *RNG) float64 {
	v := c.D.Sample(g)
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}

// Mean implements Dist (the inner mean; accurate when clamping is rare).
func (c Clamped) Mean() float64 { return c.D.Mean() }

// Zipf is a finite Zipf(-Mandelbrot when Q > 0) distribution over ranks
// 1..N with exponent S: P(rank k) proportional to 1/(k+Q)^S. It is the
// paper's model for file popularity (heavy-tailed rank curve of Fig. 2) and
// the access pattern of Fig. 6.
type Zipf struct {
	n   int
	s   float64
	q   float64
	cdf []float64 // cdf[k] = P(rank <= k+1), normalized, monotone
}

// NewZipf precomputes the normalized CDF for ranks 1..n. It panics on
// invalid parameters (n < 1) because such a configuration is a programming
// error, not a runtime condition.
func NewZipf(n int, s, q float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("stats: NewZipf n must be >= 1, got %d", n))
	}
	z := &Zipf{n: n, s: s, q: q, cdf: make([]float64, n)}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k)+q, s)
		z.cdf[k-1] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z
}

// N reports the number of ranks.
func (z *Zipf) N() int { return z.n }

// Rank samples a rank in [1, N], with rank 1 the most probable.
func (z *Zipf) Rank(g *RNG) int {
	u := g.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// CDF reports P(rank <= k).
func (z *Zipf) CDF(k int) float64 {
	if k < 1 {
		return 0
	}
	if k > z.n {
		return 1
	}
	return z.cdf[k-1]
}
