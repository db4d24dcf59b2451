package stats

import (
	"bytes"
	"math/rand"
	"testing"

	"dare/internal/snapshot"
)

// newEagerRNG is the reference constructor: it seeds the generator when
// the stream is built, as NewRNG did before seeding moved to the first
// draw. Lazy streams must be indistinguishable from it.
func newEagerRNG(seed uint64) *RNG {
	src := new(rngSource)
	src.Seed(int64(splitmix(seed)))
	return &RNG{src: src, r: rand.New(src), seed: seed}
}

// drawKinds draws once of each kind the stream offers and reports the
// values as float64s, so two streams can be compared draw for draw.
var drawKinds = []struct {
	name string
	draw func(g *RNG) []float64
}{
	{"Float64", func(g *RNG) []float64 { return []float64{g.Float64()} }},
	{"Intn", func(g *RNG) []float64 { return []float64{float64(g.Intn(1000))} }},
	{"Int63", func(g *RNG) []float64 { return []float64{float64(g.Int63())} }},
	{"NormFloat64", func(g *RNG) []float64 { return []float64{g.NormFloat64()} }},
	{"ExpFloat64", func(g *RNG) []float64 { return []float64{g.ExpFloat64()} }},
	{"Perm", func(g *RNG) []float64 { return ints(g.Perm(9)) }},
	{"Shuffle", func(g *RNG) []float64 {
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		g.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return ints(s)
	}},
	{"Bool", func(g *RNG) []float64 { return bools(g.Bool(0.4), g.Bool(0), g.Bool(1)) }},
	// Counted draws that never touch the generator: a lazy stream with
	// only these has never seeded, yet must image like an eager one.
	{"BoolEdgesOnly", func(g *RNG) []float64 { return bools(g.Bool(0), g.Bool(1), g.Bool(-2), g.Bool(3)) }},
}

func ints(s []int) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v)
	}
	return out
}

func bools(bs ...bool) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

func image(t *testing.T, g *RNG) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := g.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

func decoded(t *testing.T, img []byte, into *RNG) *RNG {
	t.Helper()
	d := snapshot.NewDec(img)
	if err := into.WalkState(snapshot.WalkDec(d)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return into
}

// sameDraws draws n rounds of draw from every stream and fails on the
// first disagreement. With probe set each round also draws a Float64,
// which exposes the generator position even after edge-only Bool draws.
func sameDraws(t *testing.T, what string, n int, probe bool, draw func(*RNG) []float64, gs ...*RNG) {
	t.Helper()
	for i := 0; i < n; i++ {
		var want []float64
		for k, g := range gs {
			got := draw(g)
			if probe {
				got = append(got, g.Float64())
			}
			if k == 0 {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: round %d: stream %d drew %d values, stream 0 drew %d", what, i, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: round %d: stream %d drew %v, stream 0 drew %v", what, i, k, got, want)
				}
			}
		}
	}
}

// TestLazyRNGMatchesEager pins lazy seeding to the eager reference for
// every draw kind: identical values, identical encoded bytes, and
// identical continuations after a decode round trip of both the
// fresh (never drawn) and the full image form.
func TestLazyRNGMatchesEager(t *testing.T) {
	for _, k := range drawKinds {
		for _, seed := range []uint64{0, 1, 0xD15EA5E} {
			lazy, eager := NewRNG(seed), newEagerRNG(seed)
			if lazy.r != nil || lazy.Split(5).r != nil {
				t.Fatalf("%s: a stream seeded its generator before any draw", k.name)
			}

			// Fresh form: no draws yet.
			li, ei := image(t, lazy), image(t, eager)
			if !bytes.Equal(li, ei) {
				t.Fatalf("%s seed %d: fresh images differ", k.name, seed)
			}
			fl := decoded(t, li, NewRNG(77))
			fe := decoded(t, ei, newEagerRNG(78))
			if fl.r != nil {
				t.Fatalf("%s: decoding a fresh image seeded a generator", k.name)
			}

			// Draw from all of them; the fresh decodes continue too.
			sameDraws(t, k.name+" draws", 5, false, k.draw, eager, lazy, fl, fe)
			if k.name == "BoolEdgesOnly" && (lazy.r != nil || fl.r != nil) {
				t.Fatalf("%s: edge-only Bool draws seeded the generator", k.name)
			}

			// Full form: the same bytes, and the same continuation after
			// decoding into an unseeded source.
			li, ei = image(t, lazy), image(t, eager)
			if !bytes.Equal(li, ei) {
				t.Fatalf("%s seed %d: full images differ after draws", k.name, seed)
			}
			if len(li) < 8*rngLen {
				t.Fatalf("%s: used stream wrote a %d-byte image, want the full form", k.name, len(li))
			}
			if !bytes.Equal(image(t, fl), li) || !bytes.Equal(image(t, fe), li) {
				t.Fatalf("%s seed %d: fresh-decoded streams image differently after the same draws", k.name, seed)
			}
			sl := decoded(t, li, NewRNG(79))
			se := decoded(t, ei, newEagerRNG(80))
			sameDraws(t, k.name+" after full round trip", 5, true, k.draw, eager, lazy, sl, se, fl, fe)
			if !bytes.Equal(image(t, sl), image(t, eager)) {
				t.Fatalf("%s seed %d: round-tripped stream re-images differently", k.name, seed)
			}
		}
	}
}
