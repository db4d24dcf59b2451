package stats

// This file serves a stream's first draws without building its 607-word
// register. rngSource.Seed fills vec by iterating the Lehmer step
// x → 48271·x mod int32max from the reduced seed x₀, so each seeded word
// is a closed form of x₀: word i XORs x₀·48271ⁿ for n = 21+3i, 22+3i and
// 23+3i (shifted left by 40, 20 and 0 bits) with rngCooked[i]. Seed
// leaves feed at 334 and tap at 0, and Uint64 steps both down before it
// reads, so advance k (0-based) adds words 333−k and 606−k and overwrites
// word 333−k. Until advance rngTap, tap reaches no word an advance has
// overwritten: every read is of a word as Seed left it.

// lazyDraws is how many advances a source serves from the closed form
// before it builds the register. A closed-form advance costs six modular
// multiplications where a built register costs one add, so a long stream
// is better off switching early; rngTap is the hard limit.
const lazyDraws = 64

// lehmerPow[n] is 48271ⁿ mod int32max, for every step rngSource.Seed
// takes (n = 0 … 3·rngLen+20).
var lehmerPow [3*rngLen + 21]uint64

func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = lehmerPow[n-1] * 48271 % int32max
	}
}

// lazySource is the rand.Source64 an RNG hands rand.New. Its first
// lazyDraws advances come from the closed form. The next one builds full,
// the register rngSource.Seed writes, replays the served advances on it,
// and from then on every draw is full's.
type lazySource struct {
	full *rngSource
	x0   uint32 // the seed as Seed reduces it, in [1, int32max)
	n    uint32 // advances served from the closed form
}

// Seed reduces seed exactly as rngSource.Seed does and drops any register.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint32(seed)}
}

// Uint64 and Int63 keep a built source to one nil check; the closed form
// is out of line in lazyUint64.
func (s *lazySource) Uint64() uint64 {
	if f := s.full; f != nil {
		return f.Uint64()
	}
	return s.lazyUint64()
}

func (s *lazySource) Int63() int64 {
	if f := s.full; f != nil {
		return f.Int63()
	}
	return int64(s.lazyUint64() & rngMask)
}

// lazyUint64 serves the next advance from the closed form, or builds the
// register once lazyDraws advances have been served.
func (s *lazySource) lazyUint64() uint64 {
	k := int(s.n)
	if k == lazyDraws {
		return s.register().Uint64()
	}
	s.n++
	return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
}

// word is vec[i] as rngSource.Seed leaves it.
func (s *lazySource) word(i int) int64 {
	x, n := uint64(s.x0), 21+3*i
	u := int64(x*lehmerPow[n]%int32max) << 40
	u ^= int64(x*lehmerPow[n+1]%int32max) << 20
	u ^= int64(x * lehmerPow[n+2] % int32max)
	return u ^ rngCooked[i]
}

// register returns the source's register, building it first if the
// source is still in its closed-form phase.
func (s *lazySource) register() *rngSource {
	if s.full == nil {
		f := new(rngSource)
		f.Seed(int64(s.x0))
		for range s.n {
			f.Uint64()
		}
		s.full = f
	}
	return s.full
}
