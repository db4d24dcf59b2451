package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleFile() *File {
	return &File{Sections: []Section{
		{ID: "spec", Data: []byte(`{"seed":42,"nodes":100}`)},
		{ID: "cursor", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{ID: "state", Data: bytes.Repeat([]byte{0xAB}, 1000)},
		{ID: "empty", Data: nil},
	}}
}

func encode(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	raw := encode(t, f)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Sections) != len(f.Sections) {
		t.Fatalf("section count: got %d, want %d", len(got.Sections), len(f.Sections))
	}
	for i, s := range f.Sections {
		if got.Sections[i].ID != s.ID {
			t.Errorf("section %d id: got %q, want %q", i, got.Sections[i].ID, s.ID)
		}
		if !bytes.Equal(got.Sections[i].Data, s.Data) {
			t.Errorf("section %q payload differs", s.ID)
		}
	}
	// Re-encoding the decoded file must reproduce the exact bytes.
	raw2 := encode(t, got)
	if !bytes.Equal(raw, raw2) {
		t.Fatal("Encode(Decode(raw)) is not byte-identical to raw")
	}
}

func TestSectionLookup(t *testing.T) {
	f := sampleFile()
	if data, ok := f.Section("cursor"); !ok || len(data) != 8 {
		t.Fatalf("Section(cursor) = %v, %v", data, ok)
	}
	if _, ok := f.Section("absent"); ok {
		t.Fatal("Section(absent) reported present")
	}
}

// TestDecodeTruncated cuts a valid file at every possible length; each cut
// must yield ErrTruncated — never a panic, never a silent success.
func TestDecodeTruncated(t *testing.T) {
	raw := encode(t, sampleFile())
	for cut := 0; cut < len(raw); cut++ {
		_, err := Decode(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d: Decode succeeded on truncated file", cut, len(raw))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestDecodeBitFlip flips one bit in every byte of a valid file; each
// corruption must yield a typed snapshot error (checksum, format, version,
// or truncation when a length field shrinks the declared shape).
func TestDecodeBitFlip(t *testing.T) {
	raw := encode(t, sampleFile())
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		_, err := Decode(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFormat) &&
			!errors.Is(err, ErrVersion) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestDecodeSectionChecksumPinpointed(t *testing.T) {
	raw := encode(t, sampleFile())
	// Flip a byte inside the "state" payload (the 1000-byte 0xAB run is
	// easy to find).
	i := bytes.Index(raw, bytes.Repeat([]byte{0xAB}, 16))
	if i < 0 {
		t.Fatal("could not locate state payload")
	}
	mut := append([]byte(nil), raw...)
	mut[i+5] ^= 0x01
	_, err := Decode(bytes.NewReader(mut))
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ChecksumError", err)
	}
	if ce.Section != "state" {
		t.Fatalf("checksum error pinned to %q, want \"state\"", ce.Section)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatal("ChecksumError does not unwrap to ErrChecksum")
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	raw := encode(t, sampleFile())
	mut := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(mut[len(Magic):], Version+7)
	_, err := Decode(bytes.NewReader(mut))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Got != Version+7 {
		t.Fatalf("VersionError.Got = %d, want %d", ve.Got, Version+7)
	}
	if !errors.Is(err, ErrVersion) {
		t.Fatal("VersionError does not unwrap to ErrVersion")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	raw := encode(t, sampleFile())
	mut := append([]byte(nil), raw...)
	mut[0] = 'X'
	if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

func TestDecodeHugeSectionLength(t *testing.T) {
	// A file whose first section declares an absurd payload length must be
	// rejected without attempting the allocation.
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	buf.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], 1)
	buf.Write(u16[:])
	buf.WriteByte(1)
	buf.WriteByte('x')
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], 0xFFFFFFF0)
	buf.Write(u32[:])
	_, err := Decode(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

func TestEncodeRejectsBadSections(t *testing.T) {
	var buf bytes.Buffer
	f := &File{Sections: []Section{{ID: "", Data: []byte("x")}}}
	if err := f.Encode(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("empty id: got %v, want ErrFormat", err)
	}
	f = &File{Sections: []Section{{ID: string(make([]byte, 300)), Data: nil}}}
	if err := f.Encode(&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("long id: got %v, want ErrFormat", err)
	}
}

func TestWriteFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	gen1 := &File{Sections: []Section{{ID: "gen", Data: []byte("one")}}}
	if err := WriteFile(path, gen1); err != nil {
		t.Fatalf("WriteFile gen1: %v", err)
	}
	f, fromPrev, err := LoadFile(path)
	if err != nil || fromPrev {
		t.Fatalf("LoadFile gen1: %v fromPrev=%v", err, fromPrev)
	}
	if data, _ := f.Section("gen"); string(data) != "one" {
		t.Fatalf("gen1 payload = %q", data)
	}

	gen2 := &File{Sections: []Section{{ID: "gen", Data: []byte("two")}}}
	if err := WriteFile(path, gen2); err != nil {
		t.Fatalf("WriteFile gen2: %v", err)
	}
	f, fromPrev, err = LoadFile(path)
	if err != nil || fromPrev {
		t.Fatalf("LoadFile gen2: %v fromPrev=%v", err, fromPrev)
	}
	if data, _ := f.Section("gen"); string(data) != "two" {
		t.Fatalf("gen2 payload = %q", data)
	}
	// The previous generation must survive the rotation.
	prev, err := os.ReadFile(path + PrevSuffix)
	if err != nil {
		t.Fatalf("prev generation missing: %v", err)
	}
	pf, err := Decode(bytes.NewReader(prev))
	if err != nil {
		t.Fatalf("prev generation corrupt: %v", err)
	}
	if data, _ := pf.Section("gen"); string(data) != "one" {
		t.Fatalf("prev payload = %q, want \"one\"", data)
	}
}

func TestLoadFileFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	gen1 := &File{Sections: []Section{{ID: "gen", Data: []byte("one")}}}
	gen2 := &File{Sections: []Section{{ID: "gen", Data: []byte("two")}}}
	if err := WriteFile(path, gen1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, gen2); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-write: truncate the primary.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, fromPrev, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile with torn primary: %v", err)
	}
	if !fromPrev {
		t.Fatal("LoadFile did not report the fallback generation")
	}
	if data, _ := f.Section("gen"); string(data) != "one" {
		t.Fatalf("fallback payload = %q, want \"one\"", data)
	}

	// Both generations torn: error must describe the primary's defect.
	if err := os.WriteFile(path+PrevSuffix, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadFile(path)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("both torn: got %v, want ErrTruncated", err)
	}

	// Primary missing entirely, prev gone too.
	os.Remove(path)
	os.Remove(path + PrevSuffix)
	_, _, err = LoadFile(path)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("both missing: got %v, want os.ErrNotExist", err)
	}
}
