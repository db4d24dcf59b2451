package stats

import (
	"bytes"
	"math/rand"
	"testing"
)

// lazyStream returns a stream whose source is seeded with srcSeed as is
// and serves its first draws from the closed form. Unlike NewRNG it skips
// splitmix, so the oracle's edge seeds reach the source unchanged.
func lazyStream(srcSeed int64) *RNG {
	var src lazySource
	src.Seed(srcSeed)
	g := &RNG{}
	g.wrap(src)
	return g
}

// registered reports whether g has built its 607-word register.
func registered(g *RNG) bool { return g.st != nil && g.st.src.full != nil }

// TestLazySourceMatchesSeed pins the closed form to the verbatim
// rngSource.Seed and to math/rand's source: every word Seed writes, and
// 2,000 advances drawn as an interleave of Uint64 and Int63, which
// crosses lazyDraws, rngTap and rngLen.
func TestLazySourceMatchesSeed(t *testing.T) {
	for _, seed := range oracleSeeds() {
		var lazy lazySource
		lazy.Seed(seed)
		verbatim := new(rngSource)
		verbatim.Seed(seed)
		for i := range verbatim.vec {
			if got := lazy.word(i); got != verbatim.vec[i] {
				t.Fatalf("seed %d: word %d = %d, Seed wrote %d", seed, i, got, verbatim.vec[i])
			}
		}
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			var got, v, w uint64
			if i%3 == 1 {
				got, v, w = uint64(lazy.Int63()), uint64(verbatim.Int63()), uint64(want.Int63())
			} else {
				got, v, w = lazy.Uint64(), verbatim.Uint64(), want.Uint64()
			}
			if got != v || got != w {
				t.Fatalf("seed %d: advance %d = %d, Seed's source drew %d, math/rand drew %d", seed, i, got, v, w)
			}
		}
	}
}

// TestLazyStreamsMatchReference draws every draw kind from a lazy stream,
// an eager one and one over math/rand's source, for every oracle seed,
// far enough that each stream crosses lazyDraws, rngTap and rngLen.
func TestLazyStreamsMatchReference(t *testing.T) {
	for _, k := range drawKinds {
		for _, seed := range oracleSeeds() {
			ref := &RNG{r: rand.New(rand.NewSource(seed))}
			sameDraws(t, k.name, 650, true, k.draw, ref, eagerStream(0, seed), lazyStream(seed))
		}
	}
}

// advanceCounts are the source positions at which TestLazyImageRoundTrip
// images a stream: either side of the closed form's end, of the first
// advance that reads an overwritten word, and of the register's wrap.
var advanceCounts = []int{0, 1, lazyDraws - 1, lazyDraws, lazyDraws + 1, rngTap - 1, rngTap, rngTap + 1, rngLen - 1, rngLen}

// TestLazyImageRoundTrip images a lazy stream after each of advanceCounts
// source advances, with and without edge-only Bool draws first (counted,
// source untouched). The image must be an eager stream's byte for byte,
// and the decoded stream must continue as both do.
func TestLazyImageRoundTrip(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xD15EA5E, 1 << 63} {
		for _, edges := range []int{0, 3} {
			for _, n := range advanceCounts {
				lazy, eager := NewRNG(seed), newEagerRNG(seed)
				for _, g := range []*RNG{lazy, eager} {
					for i := 0; i < edges; i++ {
						g.Bool(float64(i % 2))
					}
					for i := 0; i < n; i++ {
						g.Int63()
					}
				}
				if n <= lazyDraws && registered(lazy) {
					t.Fatalf("seed %d: a stream built its register after %d advances", seed, n)
				}
				img := image(t, lazy)
				if want := image(t, eager); !bytes.Equal(img, want) {
					t.Fatalf("seed %d, %d edge draws, %d advances: lazy image differs from eager", seed, edges, n)
				}
				back := decoded(t, img, NewRNG(seed+1))
				sameDraws(t, "after round trip", 700, false, drawKinds[0].draw, eager, lazy, back)
				if !bytes.Equal(image(t, back), image(t, eager)) {
					t.Fatalf("seed %d, %d edge draws, %d advances: round-tripped stream re-images differently", seed, edges, n)
				}
			}
		}
	}
}

// TestLazySourceBuildsRegisterLate pins the saving: a stream has no
// register through its first lazyDraws advances, and has one after the
// next.
func TestLazySourceBuildsRegisterLate(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < lazyDraws; i++ {
		g.Int63()
	}
	if registered(g) {
		t.Fatalf("register built within the first %d advances", lazyDraws)
	}
	g.Int63()
	if !registered(g) {
		t.Fatalf("no register after %d advances", lazyDraws+1)
	}
}

// FuzzRNGLazySource runs a script of draw kinds on a lazy stream and an
// eager one, imaging both at the cut and continuing the lazy stream from
// its decoded image. Draws and images must agree throughout.
func FuzzRNGLazySource(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte{0, 7, 8})
	f.Add(int64(-1), uint16(lazyDraws), bytes.Repeat([]byte{2}, 2*lazyDraws))
	f.Add(int64(1)<<40, uint16(rngTap), bytes.Repeat([]byte{0, 8, 3}, rngTap))
	f.Add(int64(7), uint16(3), []byte{8, 8, 8, 8, 5, 6, 4, 1})
	f.Fuzz(func(t *testing.T, seed int64, cut uint16, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		at := int(cut) % (len(script) + 1)
		lazy, eager := NewRNG(uint64(seed)), newEagerRNG(uint64(seed))
		for i := 0; i <= len(script); i++ {
			if i == at {
				img := image(t, lazy)
				if !bytes.Equal(img, image(t, eager)) {
					t.Fatalf("images differ after %d draws", i)
				}
				lazy = decoded(t, img, NewRNG(^uint64(seed)))
			}
			if i < len(script) {
				k := drawKinds[int(script[i])%len(drawKinds)]
				sameDraws(t, k.name, 1, false, k.draw, eager, lazy)
			}
		}
		if !bytes.Equal(image(t, lazy), image(t, eager)) {
			t.Fatal("images differ at the end of the script")
		}
	})
}
