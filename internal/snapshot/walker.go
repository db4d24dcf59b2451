package snapshot

import (
	"cmp"
	"slices"
)

// Walker is one traversal of a state image that runs in either direction.
// Over an Enc it appends every field it visits; over a Dec it overwrites
// every field it visits with the decoded value. A layer describes its
// image once, as a walk that visits its fields through a Walker in a
// fixed order, so the encode and decode orders cannot drift apart — the
// pattern of Boost.Serialization's `ar & field`.
//
// Code that only makes sense on one side sits behind Decoding(): range
// checks on decoded values, resolving decoded IDs to live pointers, and
// rebuilding structures derived from the image. Decode errors are the
// Dec's sticky errors, so a walk checks Err where a defect would
// otherwise reach a range check or an index.
//
// Walker is a struct over the one Enc/Dec format, not an interface both
// implement: Enc's methods take values, so it cannot also have pointer
// methods of the same names, and a struct keeps every call direct.
type Walker struct {
	enc *Enc
	dec *Dec
}

// WalkEnc returns a walker that appends every visited field to e.
func WalkEnc(e *Enc) *Walker { return &Walker{enc: e} }

// WalkDec returns a walker that reads every visited field from d.
func WalkDec(d *Dec) *Walker { return &Walker{dec: d} }

// Decoding reports whether the walk reads fields (true) or writes them.
func (w *Walker) Decoding() bool { return w.dec != nil }

// Err reports the first decoding error; an encoding walk never fails.
func (w *Walker) Err() error {
	if w.dec != nil {
		return w.dec.err
	}
	return nil
}

// Enc returns the encoder of an encoding walk (nil when decoding), for a
// bulk path that copies a nested image as it is.
func (w *Walker) Enc() *Enc { return w.enc }

// Dec returns the decoder of a decoding walk (nil when encoding), for a
// bulk path that reads a nested image as it is.
func (w *Walker) Dec() *Dec { return w.dec }

// U8 walks one byte.
func (w *Walker) U8(v *uint8) {
	if w.dec != nil {
		*v = w.dec.U8()
	} else {
		w.enc.U8(*v)
	}
}

// U16 walks a little-endian uint16.
func (w *Walker) U16(v *uint16) {
	if w.dec != nil {
		*v = w.dec.U16()
	} else {
		w.enc.U16(*v)
	}
}

// U32 walks a little-endian uint32.
func (w *Walker) U32(v *uint32) {
	if w.dec != nil {
		*v = w.dec.U32()
	} else {
		w.enc.U32(*v)
	}
}

// U64 walks a little-endian uint64.
func (w *Walker) U64(v *uint64) {
	if w.dec != nil {
		*v = w.dec.U64()
	} else {
		w.enc.U64(*v)
	}
}

// I64 walks an int64 as its two's-complement uint64 image.
func (w *Walker) I64(v *int64) {
	if w.dec != nil {
		*v = w.dec.I64()
	} else {
		w.enc.I64(*v)
	}
}

// I64s walks len(vs) int64s in one bulk copy.
func (w *Walker) I64s(vs []int64) {
	if w.dec != nil {
		w.dec.I64s(vs)
	} else {
		w.enc.I64s(vs)
	}
}

// F64 walks a float64 as its exact IEEE-754 bit image.
func (w *Walker) F64(v *float64) {
	if w.dec != nil {
		*v = w.dec.F64()
	} else {
		w.enc.F64(*v)
	}
}

// Bool walks one byte, 0 or 1; any nonzero byte decodes as true.
func (w *Walker) Bool(v *bool) {
	if w.dec != nil {
		*v = w.dec.Bool()
	} else {
		w.enc.Bool(*v)
	}
}

// Str walks a u32 length prefix and the raw bytes of a string.
func (w *Walker) Str(v *string) {
	if w.dec != nil {
		*v = w.dec.Str()
	} else {
		w.enc.Str(*v)
	}
}

// Count walks the u32 element count written before a repeated group. On
// decode it is bounded as Dec.Count bounds it: each element takes at
// least elemBytes bytes, so a count that cannot fit is ErrFormat and
// decodes as 0.
func (w *Walker) Count(n *int, elemBytes int) {
	if w.dec != nil {
		*n = w.dec.Count(elemBytes)
	} else {
		w.enc.U32(uint32(*n))
	}
}

// Len walks a slice's length as Count does. Decoding resizes *s to it
// over the same backing array, so a nil slice stays nil at length 0, as
// one appended to would; the walk then visits the elements.
func Len[S ~[]T, T any](w *Walker, s *S, elemBytes int) {
	n := len(*s)
	w.Count(&n, elemBytes)
	if w.dec != nil {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
}

// Int walks an integer as the 8 bytes of Enc.I64.
func Int[T ~int | ~int32 | ~int64](w *Walker, v *T) {
	if w.dec != nil {
		*v = T(w.dec.I64())
	} else {
		w.enc.I64(int64(*v))
	}
}

// Byte walks a one-byte kind or mode as Enc.U8 writes it.
func Byte[T ~uint8 | ~int8](w *Walker, v *T) {
	if w.dec != nil {
		*v = T(w.dec.U8())
	} else {
		w.enc.U8(uint8(*v))
	}
}

// SortedMap walks a map as a Count (elemBytes per entry) and then one
// record per entry in ascending key order. walk visits one entry and
// returns it: encoding passes the live key and value, decoding passes
// zero values and stores what walk returns. Decoding clears *m, or makes
// it when it is nil and the image has entries.
func SortedMap[M ~map[K]V, K cmp.Ordered, V any](w *Walker, m *M, elemBytes int, walk func(w *Walker, k K, v V) (K, V)) {
	if w.dec != nil {
		n := w.dec.Count(elemBytes)
		if *m == nil && n > 0 {
			*m = make(M, n)
		}
		clear(*m)
		for range n {
			var k K
			var v V
			k, v = walk(w, k, v)
			(*m)[k] = v
		}
		return
	}
	// Small maps sort their keys on the stack.
	var buf [16]K
	keys := buf[:0]
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.enc.U32(uint32(len(keys)))
	for _, k := range keys {
		walk(w, k, (*m)[k])
	}
}
