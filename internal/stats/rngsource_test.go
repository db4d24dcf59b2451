package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dare/internal/snapshot"
)

// oracleSeeds are the seeds the ported source is checked on: the edges of
// Seed's reduction modulo int32max (0 and its multiples map to the
// 89482311 substitute), the int64 extremes, and a spread of splitmix
// seeds like those NewRNG streams use.
func oracleSeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64}
	for i := uint64(0); i < 300; i++ {
		seeds = append(seeds, int64(splitmix(i)))
	}
	return seeds
}

// sameWords draws n Uint64 and then n Int63 words from both sources and
// fails on the first disagreement.
func sameWords(t *testing.T, what string, n int, ours *rngSource, want rand.Source64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got, w := ours.Uint64(), want.Uint64(); got != w {
			t.Fatalf("%s: Uint64 %d = %d, math/rand drew %d", what, i, got, w)
		}
	}
	for i := 0; i < n; i++ {
		if got, w := ours.Int63(), want.Int63(); got != w {
			t.Fatalf("%s: Int63 %d = %d, math/rand drew %d", what, i, got, w)
		}
	}
}

// TestSourceMatchesMathRand pins the ported source to math/rand's: the
// same words for every seed, also after re-seeding an advanced source,
// and the same values for every draw kind through rand.New.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		ours := new(rngSource)
		ours.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		sameWords(t, "seed", 2000, ours, want)

		reseed := int64(splitmix(uint64(seed)))
		ours.Seed(reseed)
		want.Seed(reseed)
		sameWords(t, "re-seeded", 1000, ours, want)
	}

	for _, k := range drawKinds {
		for _, seed := range oracleSeeds()[:20] {
			ours := eagerStream(0, seed)
			ref := &RNG{r: rand.New(rand.NewSource(seed))}
			sameDraws(t, k.name, 50, true, k.draw, ref, ours)
		}
	}
}

// rngImage writes an RNG state image field by field, so a test can write
// images encoding never would.
type rngImage struct {
	seed, draws      uint64
	form             uint8
	tap, feed        int
	readVal, readPos int64
}

func (im rngImage) encode(vec *[rngLen]int64) []byte {
	e := snapshot.NewEnc()
	e.U64(im.seed)
	e.U64(im.draws)
	e.U8(im.form)
	if im.form == rngImageFresh {
		return e.Data()
	}
	e.I64(int64(im.tap))
	e.I64(int64(im.feed))
	e.I64s(vec[:])
	e.I64(im.readVal)
	e.I64(im.readPos)
	return e.Data()
}

// TestRNGDecodeRejectsMalformedImage feeds WalkState one decoding image per
// field it checks. Each malformed image must fail with snapshot.ErrFormat
// (a bad tap used to decode and then panic on the next draw); the
// boundary images must decode and draw.
func TestRNGDecodeRejectsMalformedImage(t *testing.T) {
	g := newEagerRNG(9)
	g.Float64()
	src := g.st.src.full
	vec := &src.vec
	feedFor := func(tap int) int { return (tap + rngLen - rngTap) % rngLen }
	full := func(tap int) rngImage {
		return rngImage{seed: 9, draws: 1, form: rngImageFull, tap: tap, feed: feedFor(tap)}
	}
	with := func(im rngImage, edit func(*rngImage)) rngImage { edit(&im); return im }
	for _, c := range []struct {
		name string
		im   rngImage
		ok   bool
	}{
		{"fresh", rngImage{seed: 9, form: rngImageFresh}, true},
		{"full", full(src.tap), true},
		{"tap at 0", full(0), true},
		{"tap at rngLen-1", full(rngLen - 1), true},
		{"negative tap", full(-1), false},
		{"tap at rngLen", full(rngLen), false},
		{"tap past vec", full(src.tap + 4096), false},
		{"feed off by one", with(full(5), func(im *rngImage) { im.feed++ }), false},
		{"feed equals tap", with(full(5), func(im *rngImage) { im.feed = 5 }), false},
		{"Read cache value", with(full(5), func(im *rngImage) { im.readVal = 1 }), false},
		{"Read cache position", with(full(5), func(im *rngImage) { im.readPos = 3 }), false},
		{"fresh with draws", rngImage{seed: 9, draws: 2, form: rngImageFresh}, false},
		{"full with zero draws", with(full(5), func(im *rngImage) { im.draws = 0 }), false},
		{"unknown form", rngImage{seed: 9, draws: 1, form: 2}, false},
	} {
		d := snapshot.NewDec(c.im.encode(vec))
		var h RNG
		err := h.WalkState(snapshot.WalkDec(d))
		if !c.ok {
			if !errors.Is(err, snapshot.ErrFormat) {
				t.Errorf("%s: WalkState = %v, want snapshot.ErrFormat", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: WalkState = %v, want success", c.name, err)
			continue
		}
		if err := d.Finish(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		for i := 0; i < 2*rngLen; i++ {
			h.Float64()
		}
	}
}
