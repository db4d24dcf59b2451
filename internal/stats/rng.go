// Package stats provides the statistical building blocks used throughout the
// DARE reproduction: seeded random-number streams, the heavy-tailed
// distributions that drive workload synthesis (Zipf, Pareto, log-normal),
// empirical summaries (mean, deviation, coefficient of variation, geometric
// mean, percentiles), and cumulative-distribution utilities.
//
// Every consumer of randomness in the simulator owns a *stats.RNG derived
// from a master seed, so a whole experiment is a pure function of
// (configuration, seed). That determinism is what the test suite and the
// benchmark harness rely on to produce stable tables.
package stats

import "math/rand"

// RNG is a deterministic random stream. It thinly wraps math/rand.Rand so
// that call sites do not accidentally reach for the shared global source,
// and so sub-streams can be split off reproducibly.
//
// A copy of a seeded RNG would share its generator with the original, so
// an RNG is only ever held by pointer; non-test code copies one nowhere.
type RNG struct {
	// r is st's math/rand generator; both are nil until the first draw
	// that needs them (see gen). Most streams a run splits off never
	// draw, and most that do draw a few times, so st's source serves its
	// first draws from the seed's closed form and builds its 607-word
	// register only for a longer stream (lazysource.go). RNG owns the
	// source so that WalkState can image its words.
	r  *rand.Rand
	st *generator
	// seed records the stream's origin; useful in error messages and for
	// splitting sub-streams.
	seed uint64
	// draws counts calls that consumed (or could consume) the underlying
	// stream. (seed, draws) is the stream's checkpoint coordinate: it
	// rides every state image (see WalkState), so a resumed run whose
	// RNG drifted anywhere re-encodes to different bytes.
	draws uint64
}

// NewRNG returns a deterministic stream for the given seed. It records the
// seed only; the generator is seeded on the first draw, so the sequence is
// the same as if it were seeded here.
func NewRNG(seed uint64) *RNG { return &RNG{seed: seed} }

// gen returns the stream's generator, seeding it on first use.
func (g *RNG) gen() *rand.Rand {
	if g.r == nil {
		g.seedGen()
	}
	return g.r
}

// seedGen seeds the generator from splitmix(seed), exactly as an eagerly
// built stream would have been. It is kept out of gen so that gen inlines.
func (g *RNG) seedGen() {
	var src lazySource
	src.Seed(int64(splitmix(g.seed)))
	g.wrap(src)
}

// generator is a seeded stream's math/rand generator and the source it
// draws from. They share one allocation: rand.New's result is copied in,
// and its source is a pointer to the src field.
type generator struct {
	rand rand.Rand
	src  lazySource
}

// wrap gives the stream a generator over src.
func (g *RNG) wrap(src lazySource) {
	st := &generator{src: src}
	st.rand = *rand.New(&st.src)
	g.r, g.st = &st.rand, st
}

// Split derives an independent sub-stream identified by label. Splitting is
// deterministic: the same (seed, label) always yields the same stream, and
// distinct labels yield streams that are uncorrelated for practical
// purposes (splitmix64 finalizer mixing).
func (g *RNG) Split(label uint64) *RNG {
	return NewRNG(splitmix(g.seed ^ (label*0x9E3779B97F4A7C15 + 0x85EBCA6B)))
}

// Seed reports the seed this stream was created with.
func (g *RNG) Seed() uint64 { return g.seed }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { g.draws++; return g.gen().Float64() }

// Intn returns a uniform integer in [0,n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { g.draws++; return g.gen().Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { g.draws++; return g.gen().Int63() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { g.draws++; return g.gen().NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (g *RNG) ExpFloat64() float64 { g.draws++; return g.gen().ExpFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { g.draws++; return g.gen().Perm(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	g.draws++
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.gen().Float64() < p
}

// splitmix is the splitmix64 finalizer; it decorrelates nearby seeds so
// that seed, seed+1, ... produce unrelated streams.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
