package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc is the append-only binary encoder for state-image sections: fixed
// little-endian scalars and length-prefixed byte strings, no varints, no
// reflection. Every layer's EncodeState writes through one of these; the
// matching Dec reads fields back in the identical order. The format is
// deliberately dumb — a restored image is verified by re-encoding it and
// byte-comparing with the stored one, so the codec only needs to be
// deterministic and exact, not self-describing.
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{} }

// Data returns the encoded bytes accumulated so far.
func (e *Enc) Data() []byte { return e.buf }

// Reset empties the encoder for reuse, keeping its buffer.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Len reports the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so the next n bytes of appends do not
// reallocate.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64 as its two's-complement uint64 image.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// I64s appends each value as I64 would, growing the buffer once.
func (e *Enc) I64s(vs []int64) {
	e.Grow(8 * len(vs))
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	}
}

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bit image — exact, including
// negative zero and NaN payloads.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a u32 length prefix and the raw bytes of s.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a u32 length prefix and the raw bytes of b.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b as it is, with no length prefix: a nested image written
// by another Enc.
func (e *Enc) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Dec decodes a state-image section written by Enc. Errors are sticky:
// the first short read or bad length poisons the decoder, every later
// read returns zero values, and Err reports the defect — callers check
// once at the end instead of after every field.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err reports the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many bytes are left to decode.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Rest returns the bytes not yet decoded without consuming them. The
// slice aliases the decoder's buffer.
func (d *Dec) Rest() []byte { return d.buf[d.off:] }

// Finish reports the sticky error, or a format error when decoded fields
// did not consume the section exactly.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes after state image", ErrFormat, len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail(n int) bool {
	if d.err != nil {
		return true
	}
	if len(d.buf)-d.off < n {
		d.err = fmt.Errorf("%w: state image needs %d bytes at offset %d, %d left",
			ErrTruncated, n, d.off, len(d.buf)-d.off)
		return true
	}
	return false
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.fail(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	if d.fail(2) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if d.fail(4) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if d.fail(8) {
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// I64s fills dst with len(dst) values written by Enc.I64s (or as many
// I64 calls). A short section fails the whole read and leaves dst zeroed.
func (d *Dec) I64s(dst []int64) {
	if d.fail(8 * len(dst)) {
		clear(dst)
		return
	}
	b := d.buf[d.off : d.off+8*len(dst)]
	d.off += len(b)
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Int reads an int encoded by Enc.Int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 bit image.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte as a boolean; any nonzero byte is true.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// Count reads a u32 element count written before a repeated group and
// bounds it against the bytes actually left: each element occupies at
// least elemBytes bytes (clamped to >= 1), so a count that cannot fit in
// the section is a format error up front — not a multi-gigabyte decode
// loop over a corrupted field. Returns 0 after any error.
func (d *Dec) Count(elemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > d.Remaining()/elemBytes {
		d.err = fmt.Errorf("%w: state image claims %d elements of >= %d bytes with %d bytes left",
			ErrFormat, n, elemBytes, d.Remaining())
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffer; copy it if it must outlive the section bytes.
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	if d.err != nil || d.fail(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}
