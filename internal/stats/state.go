package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"unsafe"

	"dare/internal/snapshot"
)

// This file gives RNG a direct state image for O(state) checkpoint
// restore. The draws counter alone is not enough to reposition a stream:
// Bool short-circuits p<=0 / p>=1 after counting the draw without
// consuming the underlying generator, so draws and the source position can
// legitimately differ. The image therefore carries both the (seed, draws)
// coordinate and the raw math/rand generator internals (the additive
// lagged-Fibonacci state: tap, feed, vec[607], plus Rand's Read cache).
//
// Those internals are unexported. Their layout is found once, by
// reflection, at init; encode and decode then reach them through plain
// pointer arithmetic, vec as one *[607]int64. That is deliberately
// defensive: an init-time self-test proves the exact encode and decode
// code on the running toolchain, and StateSerializable gates the whole
// state-mode resume path — an unsupported runtime falls back to
// replay-from-genesis rather than silently mis-restoring.

// rngVecLen is math/rand's additive-generator state length (rngLen).
const rngVecLen = 607

// rngLayout locates math/rand's unexported generator state: the source
// behind rand.Rand's src field, and the byte offsets of every field a
// state image carries.
type rngLayout struct {
	srcField int          // index of rand.Rand's src field
	srcType  reflect.Type // concrete source type, a pointer to a struct
	// Offsets within the source struct.
	tap, feed, vec uintptr
	// Offsets within rand.Rand (its Read cache).
	readVal, readPos uintptr
}

// rngState is the validated generator layout, or nil when the init
// self-test found that this runtime's math/rand cannot be imaged.
var rngState = newRNGState()

func newRNGState() *rngLayout {
	l, err := captureRNGLayout()
	if err != nil || !rngStateSelfTest(l) {
		return nil
	}
	return l
}

// StateSerializable reports whether RNG state images work on this
// runtime. When false, EncodeState of a used stream returns an error and
// callers must resume by replay instead.
func StateSerializable() bool { return rngState != nil }

var errNoRNGState = fmt.Errorf("stats: rng state images unsupported on this runtime")

// captureRNGLayout finds the generator fields by reflection and checks
// their types, so the pointer arithmetic in encodeSource/decodeSource
// reads and writes exactly what math/rand declares.
func captureRNGLayout() (l *rngLayout, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("stats: rng layout capture panicked: %v", p)
		}
	}()
	randT := reflect.TypeOf(rand.Rand{})
	srcF, ok := randT.FieldByName("src")
	if !ok || srcF.Type.Kind() != reflect.Interface {
		return nil, fmt.Errorf("stats: rand.Rand has no src interface field")
	}
	srcT := reflect.TypeOf(rand.NewSource(1))
	if srcT.Kind() != reflect.Pointer || srcT.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("stats: rand source is not a struct pointer")
	}
	field := func(t reflect.Type, name string, want reflect.Type) (uintptr, error) {
		f, ok := t.FieldByName(name)
		if !ok || f.Type != want {
			return 0, fmt.Errorf("stats: %v.%s missing or not %v", t, name, want)
		}
		return f.Offset, nil
	}
	intT := reflect.TypeOf(int(0))
	l = &rngLayout{srcField: srcF.Index[0], srcType: srcT}
	for _, f := range []struct {
		t    reflect.Type
		name string
		want reflect.Type
		off  *uintptr
	}{
		{srcT.Elem(), "tap", intT, &l.tap},
		{srcT.Elem(), "feed", intT, &l.feed},
		{srcT.Elem(), "vec", reflect.TypeOf([rngVecLen]int64{}), &l.vec},
		{randT, "readVal", reflect.TypeOf(int64(0)), &l.readVal},
		{randT, "readPos", reflect.TypeOf(int8(0)), &l.readPos},
	} {
		if *f.off, err = field(f.t, f.name, f.want); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// source returns the address of r's source struct.
func (l *rngLayout) source(r *rand.Rand) (unsafe.Pointer, error) {
	sv := reflect.ValueOf(r).Elem().Field(l.srcField).Elem()
	if !sv.IsValid() || sv.Type() != l.srcType || sv.IsNil() {
		return nil, fmt.Errorf("stats: rand source is not the captured %v", l.srcType)
	}
	return sv.UnsafePointer(), nil
}

// encodeSource appends r's generator image: tap, feed, vec[607],
// readVal, readPos, each as an I64.
func (l *rngLayout) encodeSource(e *snapshot.Enc, r *rand.Rand) error {
	src, err := l.source(r)
	if err != nil {
		return err
	}
	rp := unsafe.Pointer(r)
	e.Grow(8 * (rngVecLen + 4))
	e.Int(*(*int)(unsafe.Add(src, l.tap)))
	e.Int(*(*int)(unsafe.Add(src, l.feed)))
	e.I64s((*[rngVecLen]int64)(unsafe.Add(src, l.vec))[:])
	e.I64(*(*int64)(unsafe.Add(rp, l.readVal)))
	e.I64(int64(*(*int8)(unsafe.Add(rp, l.readPos))))
	return nil
}

// decodeSource reads an encodeSource image into a new generator. Its
// source starts as the zero value of the captured type, never a seeded
// one: the image overwrites every source field, so seeding first would
// only be discarded.
func (l *rngLayout) decodeSource(d *snapshot.Dec) (*rand.Rand, error) {
	// srcType came from rand.NewSource, so it is a rand.Source.
	sv := reflect.New(l.srcType.Elem())
	r := rand.New(sv.Interface().(rand.Source))
	sp, rp := sv.UnsafePointer(), unsafe.Pointer(r)
	*(*int)(unsafe.Add(sp, l.tap)) = d.Int()
	*(*int)(unsafe.Add(sp, l.feed)) = d.Int()
	d.I64s((*[rngVecLen]int64)(unsafe.Add(sp, l.vec))[:])
	*(*int64)(unsafe.Add(rp, l.readVal)) = d.I64()
	*(*int8)(unsafe.Add(rp, l.readPos)) = int8(d.I64())
	if d.Err() != nil {
		return nil, d.Err()
	}
	return r, nil
}

// Image forms: a fresh stream (zero draws, source untouched) needs only
// its seed; a used one carries the full generator state.
const (
	rngImageFresh = 0
	rngImageFull  = 1
)

// EncodeState appends the stream's full state image.
func (g *RNG) EncodeState(e *snapshot.Enc) error { return g.encodeState(e, rngState) }

// DecodeState restores the stream from an image written by EncodeState,
// replacing g's seed, position, and generator internals.
func (g *RNG) DecodeState(d *snapshot.Dec) error { return g.decodeState(d, rngState) }

// encodeState is EncodeState against layout l; a nil l (an unsupported
// runtime) can still encode fresh streams.
func (g *RNG) encodeState(e *snapshot.Enc, l *rngLayout) error {
	if g.draws > 0 && l == nil {
		return errNoRNGState
	}
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
	return l.encodeSource(e, g.gen())
}

// decodeState is DecodeState against layout l.
func (g *RNG) decodeState(d *snapshot.Dec, l *rngLayout) error {
	seed := d.U64()
	draws := d.U64()
	form := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	switch form {
	case rngImageFresh:
		// The generator stays unseeded until the stream's next draw.
		*g = RNG{seed: seed, draws: draws}
		return nil
	case rngImageFull:
		if l == nil {
			return errNoRNGState
		}
		r, err := l.decodeSource(d)
		if err != nil {
			return err
		}
		*g = RNG{r: r, seed: seed, draws: draws}
		return nil
	default:
		return fmt.Errorf("stats: unknown rng image form %d", form)
	}
}

// rngStateSelfTest proves on this exact toolchain that a used stream
// round-trips through its state image — decoded into an unseeded source —
// and then produces the identical continuation across every draw kind the
// simulator uses. It runs the shipping encodeState/decodeState code and
// bypasses only the capability gate, which it is computing.
func rngStateSelfTest(l *rngLayout) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	a := NewRNG(0xD15EA5E)
	for i := 0; i < 7; i++ {
		a.Float64()
		a.NormFloat64()
		a.ExpFloat64()
		a.Intn(1000)
		a.Bool(0.5)
		a.Bool(-1) // counted but not consumed: draws and position diverge
		a.Bool(2)
	}
	e := snapshot.NewEnc()
	if a.encodeState(e, l) != nil {
		return false
	}
	b := NewRNG(1)
	d := snapshot.NewDec(e.Data())
	if b.decodeState(d, l) != nil || d.Finish() != nil {
		return false
	}
	if a.draws != b.draws || a.seed != b.seed {
		return false
	}
	for i := 0; i < 64; i++ {
		if a.Float64() != b.Float64() || a.Int63() != b.Int63() ||
			a.NormFloat64() != b.NormFloat64() || a.Bool(0.3) != b.Bool(0.3) {
			return false
		}
	}
	return a.draws == b.draws
}
