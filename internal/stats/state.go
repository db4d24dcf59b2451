package stats

import (
	"fmt"
	"math/rand"

	"dare/internal/snapshot"
)

// This file gives RNG a direct state image for O(state) checkpoint
// restore. The draws counter alone is not enough to reposition a stream:
// Bool short-circuits p<=0 / p>=1 after counting the draw without
// consuming the underlying generator, so draws and the source position can
// legitimately differ. The image therefore carries both the (seed, draws)
// coordinate and the generator's own words (tap, feed, vec[607]; see
// rngsource.go), followed by two words that held rand.Rand's Read cache
// in earlier builds. RNG never calls Read, so both are always zero.

// Image forms: a fresh stream (zero draws, source untouched) needs only
// its seed; a used one carries the full generator state.
const (
	rngImageFresh = 0
	rngImageFull  = 1
)

// WalkState walks the stream's full state image. Decoding replaces g's
// seed, position, and generator words, and rejects an image encoding could
// not have written with snapshot.ErrFormat, so a corrupted checkpoint
// fails here rather than on a later draw. Encoding never fails.
func (g *RNG) WalkState(w *snapshot.Walker) error {
	seed, draws := g.seed, g.draws
	w.U64(&seed)
	w.U64(&draws)
	// draws==0 implies the source was never advanced: rebuildable from
	// the seed alone, saving ~5 KiB per untouched stream.
	form := uint8(rngImageFull)
	if draws == 0 {
		form = rngImageFresh
	}
	w.U8(&form)
	if err := w.Err(); err != nil {
		return err
	}
	switch form {
	case rngImageFresh:
		if draws != 0 {
			return fmt.Errorf("%w: fresh rng image with %d draws", snapshot.ErrFormat, draws)
		}
		if w.Decoding() {
			// The generator stays unseeded until the stream's next draw.
			*g = RNG{seed: seed}
		}
		return nil
	case rngImageFull:
	default:
		return fmt.Errorf("%w: unknown rng image form %d", snapshot.ErrFormat, form)
	}
	// Decoding overwrites every source word, so the source is never seeded
	// first. Encoding a stream whose only draws were Bool(p<=0) /
	// Bool(p>=1) seeds its generator here, which writes the same image an
	// eagerly seeded stream would.
	var src *rngSource
	if w.Decoding() {
		src = new(rngSource)
	} else {
		g.gen()
		src = g.src
	}
	snapshot.Int(w, &src.tap)
	snapshot.Int(w, &src.feed)
	w.I64s(src.vec[:])
	var readVal, readPos int64 // the retired Read cache
	w.I64(&readVal)
	w.I64(&readPos)
	if err := w.Err(); err != nil {
		return err
	}
	switch {
	case src.tap < 0 || src.tap >= rngLen:
		return fmt.Errorf("%w: rng tap %d outside [0, %d)", snapshot.ErrFormat, src.tap, rngLen)
	case src.feed != (src.tap+rngLen-rngTap)%rngLen:
		// Seed and Uint64 keep feed this far behind tap.
		return fmt.Errorf("%w: rng feed %d does not trail tap %d by %d", snapshot.ErrFormat, src.feed, src.tap, rngTap)
	case readVal != 0 || readPos != 0:
		return fmt.Errorf("%w: rng Read cache (%d, %d) is not zero", snapshot.ErrFormat, readVal, readPos)
	}
	if w.Decoding() {
		*g = RNG{src: src, r: rand.New(src), seed: seed, draws: draws}
	}
	return nil
}
