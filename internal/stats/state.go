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

// EncodeState appends the stream's full state image. It never fails; the
// error result matches the other layers' EncodeState.
func (g *RNG) EncodeState(e *snapshot.Enc) error {
	e.U64(g.seed)
	e.U64(g.draws)
	if g.draws == 0 {
		// draws==0 implies the source was never advanced: rebuildable
		// from the seed alone, saving ~5 KiB per untouched stream.
		e.U8(rngImageFresh)
		return nil
	}
	e.U8(rngImageFull)
	// A stream whose only draws were Bool(p<=0) / Bool(p>=1) has not
	// seeded its generator yet; seeding it here writes the same image an
	// eagerly seeded stream would.
	g.gen()
	e.Grow(8 * (rngLen + 4))
	e.Int(g.src.tap)
	e.Int(g.src.feed)
	e.I64s(g.src.vec[:])
	e.I64(0) // Read cache value
	e.I64(0) // Read cache position
	return nil
}

// DecodeState restores the stream from an image written by EncodeState,
// replacing g's seed, position, and generator words. An image EncodeState
// could not have written is rejected with snapshot.ErrFormat, so a
// corrupted checkpoint fails here rather than on a later draw.
func (g *RNG) DecodeState(d *snapshot.Dec) error {
	seed := d.U64()
	draws := d.U64()
	form := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	switch form {
	case rngImageFresh:
		if draws != 0 {
			return fmt.Errorf("%w: fresh rng image with %d draws", snapshot.ErrFormat, draws)
		}
		// The generator stays unseeded until the stream's next draw.
		*g = RNG{seed: seed}
		return nil
	case rngImageFull:
	default:
		return fmt.Errorf("%w: unknown rng image form %d", snapshot.ErrFormat, form)
	}
	// The image overwrites every source word, so the source is never
	// seeded first.
	src := new(rngSource)
	src.tap = d.Int()
	src.feed = d.Int()
	d.I64s(src.vec[:])
	readVal, readPos := d.I64(), d.I64()
	if d.Err() != nil {
		return d.Err()
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
	*g = RNG{src: src, r: rand.New(src), seed: seed, draws: draws}
	return nil
}
