package snapshot

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// walkedRecord is one of every field kind a Walker visits.
type walkedRecord struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i64   int64
	f64   float64
	b     bool
	s     string
	words [3]int64
	n     int
	i32   int32
	kind  int8
}

// walk visits every field of r, then m through SortedMap.
func (r *walkedRecord) walk(w *Walker, m *map[int32]float64) {
	w.U8(&r.u8)
	w.U16(&r.u16)
	w.U32(&r.u32)
	w.U64(&r.u64)
	w.I64(&r.i64)
	w.F64(&r.f64)
	w.Bool(&r.b)
	w.Str(&r.s)
	w.I64s(r.words[:])
	w.Count(&r.n, 1)
	Int(w, &r.i32)
	Byte(w, &r.kind)
	SortedMap(w, m, 16, func(w *Walker, k int32, v float64) (int32, float64) {
		Int(w, &k)
		w.F64(&v)
		return k, v
	})
}

// TestWalkerRoundTrip: every primitive and helper decodes to the value it
// encoded, bit for bit — a NaN payload, negative zero and MinInt64
// included — and the decoded record re-encodes to the same bytes.
func TestWalkerRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	for _, f := range []float64{nan, math.Copysign(0, -1), math.Inf(-1), 1.5} {
		want := walkedRecord{
			u8: 0xFE, u16: 0xBEEF, u32: 0xDEADBEEF, u64: math.MaxUint64,
			i64: math.MinInt64, f64: f, b: true, s: "snapshot\x00walker",
			words: [3]int64{math.MinInt64, -1, math.MaxInt64},
			n:     7, i32: math.MinInt32, kind: -3,
		}
		wantMap := map[int32]float64{5: math.Copysign(0, -1), -2: nan, 9: 1}
		enc := NewEnc()
		want.walk(WalkEnc(enc), &wantMap)

		var got walkedRecord
		var gotMap map[int32]float64
		dec := NewDec(enc.Data())
		w := WalkDec(dec)
		got.walk(w, &gotMap)
		if err := dec.Finish(); err != nil || w.Err() != nil {
			t.Fatalf("decode: %v / %v", err, w.Err())
		}
		if math.Float64bits(got.f64) != math.Float64bits(want.f64) {
			t.Errorf("f64 bits: got %#x, want %#x", math.Float64bits(got.f64), math.Float64bits(want.f64))
		}
		for k, v := range wantMap {
			if g, ok := gotMap[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("map[%d]: got %v (present %v), want bits %#x", k, g, ok, math.Float64bits(v))
			}
		}
		if len(gotMap) != len(wantMap) {
			t.Errorf("map: got %d entries, want %d", len(gotMap), len(wantMap))
		}
		got.f64, want.f64 = 0, 0
		if got != want {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
		got.f64 = f
		again := NewEnc()
		got.walk(WalkEnc(again), &gotMap)
		if !bytes.Equal(again.Data(), enc.Data()) {
			t.Error("decoded record re-encodes to different bytes")
		}
	}
}

// TestWalkerWritesEncBytes: each walker call writes exactly the bytes of
// the Enc call it replaces.
func TestWalkerWritesEncBytes(t *testing.T) {
	rows := []struct {
		name string
		walk func(w *Walker)
		enc  func(e *Enc)
	}{
		{"U8", func(w *Walker) { v := uint8(0xA5); w.U8(&v) }, func(e *Enc) { e.U8(0xA5) }},
		{"U16", func(w *Walker) { v := uint16(0x1234); w.U16(&v) }, func(e *Enc) { e.U16(0x1234) }},
		{"U32", func(w *Walker) { v := uint32(0xCAFEF00D); w.U32(&v) }, func(e *Enc) { e.U32(0xCAFEF00D) }},
		{"U64", func(w *Walker) { v := uint64(1 << 63); w.U64(&v) }, func(e *Enc) { e.U64(1 << 63) }},
		{"I64", func(w *Walker) { v := int64(math.MinInt64); w.I64(&v) }, func(e *Enc) { e.I64(math.MinInt64) }},
		{"I64s", func(w *Walker) { w.I64s([]int64{-1, 2, 3}) }, func(e *Enc) { e.I64s([]int64{-1, 2, 3}) }},
		{"F64", func(w *Walker) { v := math.Copysign(0, -1); w.F64(&v) }, func(e *Enc) { e.F64(math.Copysign(0, -1)) }},
		{"Bool", func(w *Walker) { v := true; w.Bool(&v) }, func(e *Enc) { e.Bool(true) }},
		{"Str", func(w *Walker) { v := "dare"; w.Str(&v) }, func(e *Enc) { e.Str("dare") }},
		{"Count", func(w *Walker) { v := 300; w.Count(&v, 8) }, func(e *Enc) { e.U32(300) }},
		{"Int int", func(w *Walker) { v := -42; Int(w, &v) }, func(e *Enc) { e.I64(-42) }},
		{"Int int32", func(w *Walker) { v := int32(math.MinInt32); Int(w, &v) }, func(e *Enc) { e.I64(int64(math.MinInt32)) }},
		{"Int int64", func(w *Walker) { v := int64(math.MaxInt64); Int(w, &v) }, func(e *Enc) { e.I64(math.MaxInt64) }},
		{"Byte int8", func(w *Walker) { v := int8(-1); Byte(w, &v) }, func(e *Enc) { e.U8(0xFF) }},
		{"Byte uint8", func(w *Walker) { v := uint8(7); Byte(w, &v) }, func(e *Enc) { e.U8(7) }},
		{"Len", func(w *Walker) { s := make([]int64, 5); Len(w, &s, 8) }, func(e *Enc) { e.U32(5) }},
		{"SortedMap", func(w *Walker) {
			m := map[int64]uint64{3: 30, -1: 10, 2: 20}
			SortedMap(w, &m, 16, func(w *Walker, k int64, v uint64) (int64, uint64) {
				w.I64(&k)
				w.U64(&v)
				return k, v
			})
		}, func(e *Enc) {
			e.U32(3)
			for _, kv := range [][2]int64{{-1, 10}, {2, 20}, {3, 30}} {
				e.I64(kv[0])
				e.U64(uint64(kv[1]))
			}
		}},
	}
	for _, row := range rows {
		got, want := NewEnc(), NewEnc()
		row.walk(WalkEnc(got))
		row.enc(want)
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Errorf("%s: walker wrote % x, Enc wrote % x", row.name, got.Data(), want.Data())
		}
	}
}

// TestWalkerLen: decoding a length resizes the slice over its backing
// array, and a nil slice stays nil at length 0.
func TestWalkerLen(t *testing.T) {
	walk := func(w *Walker, s *[]int32) {
		Len(w, s, 8)
		for i := range *s {
			Int(w, &(*s)[i])
		}
	}
	e := NewEnc()
	three, none := []int32{7, 8, 9}, []int32(nil)
	walk(WalkEnc(e), &three)
	walk(WalkEnc(e), &none)

	w := WalkDec(NewDec(e.Data()))
	backing := make([]int32, 1, 8)
	got := backing
	walk(w, &got)
	if len(got) != 3 || &got[0] != &backing[0] || got[2] != 9 {
		t.Errorf("decoded %v, want [7 8 9] over the same array", got)
	}
	var empty []int32
	walk(w, &empty)
	if empty != nil || w.Err() != nil {
		t.Errorf("decoded zero length into a nil slice: %v, err %v; want nil", empty, w.Err())
	}
}

// TestWalkerDecodeErrors: a short section fails with a sticky
// ErrTruncated (later fields decode as zero), and a count that cannot fit
// the bytes left is ErrFormat.
func TestWalkerDecodeErrors(t *testing.T) {
	w := WalkDec(NewDec([]byte{1, 2, 3}))
	var u uint64
	w.U64(&u)
	if !errors.Is(w.Err(), ErrTruncated) {
		t.Fatalf("short U64: got %v, want ErrTruncated", w.Err())
	}
	first := w.Err()
	b := uint8(9)
	w.U8(&b)
	if b != 0 || w.Err() != first {
		t.Errorf("after truncation: U8 = %d, err %v; want 0 and the first error", b, w.Err())
	}

	e := NewEnc()
	e.U32(1000)
	e.I64(1)
	w = WalkDec(NewDec(e.Data()))
	n := -1
	w.Count(&n, 8)
	if n != 0 || !errors.Is(w.Err(), ErrFormat) {
		t.Errorf("oversized count: n = %d, err %v; want 0 and ErrFormat", n, w.Err())
	}
	if WalkEnc(NewEnc()).Err() != nil {
		t.Error("an encoding walker reports an error")
	}
}

// TestWalkerEncodeAllocs: encoding into a presized walker allocates
// nothing.
func TestWalkerEncodeAllocs(t *testing.T) {
	e := NewEnc()
	e.Grow(1 << 10)
	w := WalkEnc(e)
	r := walkedRecord{s: "abc", n: 3, i32: 4, kind: 5}
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		w.U8(&r.u8)
		w.U16(&r.u16)
		w.U32(&r.u32)
		w.U64(&r.u64)
		w.I64(&r.i64)
		w.F64(&r.f64)
		w.Bool(&r.b)
		w.Str(&r.s)
		w.I64s(r.words[:])
		w.Count(&r.n, 1)
		Int(w, &r.i32)
		Byte(w, &r.kind)
	})
	if allocs != 0 {
		t.Errorf("encoding walk allocates %v times per run, want 0", allocs)
	}
}
