// Package snapshot implements the durable-run checkpoint container: a
// versioned, checksummed, length-prefixed section file holding everything
// needed to resume a simulation after the process is killed.
//
// A checkpoint file is
//
//	magic "DARECKPT" | u16 version | u16 section count
//	per section: u8 idLen | id | u32 payloadLen | payload | u32 CRC-32(payload)
//	trailer: magic "DAREDONE" | u32 CRC-32(everything before the trailer)
//
// All integers are little-endian. Every payload carries its own CRC-32
// (IEEE) so a flipped bit is pinned to a section, and the trailer CRC
// plus the up-front section count make truncation detectable even when
// the cut lands exactly on a section boundary. Decoding never panics and
// never partially succeeds: any defect yields a typed error (ErrTruncated,
// ErrChecksum, ErrVersion, ErrFormat) and no sections.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic opens every checkpoint file; trailerMagic closes it.
const (
	Magic        = "DARECKPT"
	trailerMagic = "DAREDONE"
)

// Version is the current container format version. Decoders reject any
// other version with ErrVersion: the state image encoding gives no
// cross-version compatibility guarantee, so pretending to read an old
// snapshot would be silent corruption. Version 1 files carried a hashed
// state table beside the image; version 2 files carry the image alone.
const Version uint16 = 2

// Sentinel errors; the typed errors below wrap them, so callers can use
// errors.Is for the class and errors.As for the detail.
var (
	// ErrTruncated marks a file that ends before its declared content.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrChecksum marks a section or trailer whose CRC-32 does not match.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrVersion marks a well-formed file written by a different format
	// version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrFormat marks structural defects: bad magic, bogus lengths,
	// duplicate or unknown section shape.
	ErrFormat = errors.New("snapshot: malformed file")
)

// ChecksumError reports which section failed its CRC.
type ChecksumError struct {
	Section string // empty for the trailer CRC
	Want    uint32
	Got     uint32
}

func (e *ChecksumError) Error() string {
	where := "trailer"
	if e.Section != "" {
		where = fmt.Sprintf("section %q", e.Section)
	}
	return fmt.Sprintf("snapshot: checksum mismatch in %s (want %08x, got %08x)", where, e.Want, e.Got)
}

// Unwrap makes errors.Is(err, ErrChecksum) true.
func (e *ChecksumError) Unwrap() error { return ErrChecksum }

// VersionError reports the version a decoder refused.
type VersionError struct{ Got uint16 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported version %d (this build reads version %d)", e.Got, Version)
}

// Unwrap makes errors.Is(err, ErrVersion) true.
func (e *VersionError) Unwrap() error { return ErrVersion }

// Section is one length-prefixed, individually checksummed unit of a
// checkpoint file.
type Section struct {
	ID   string
	Data []byte
}

// File is the decoded checkpoint container: its sections in file order.
type File struct {
	Sections []Section
}

// Section returns the payload of the section with the given id, or nil
// and false when the file has no such section.
func (f *File) Section(id string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.ID == id {
			return s.Data, true
		}
	}
	return nil, false
}

// maxSectionLen bounds a single section payload (64 MiB); a larger length
// prefix is treated as corruption rather than honored as an allocation.
const maxSectionLen = 64 << 20

// Encode writes the container to w. The same File always encodes to the
// same bytes, so Encode∘Decode is a byte-level fixed point — the property
// FuzzSnapshotRoundTrip pins.
func (f *File) Encode(w io.Writer) error {
	if len(f.Sections) > 0xFFFF {
		return fmt.Errorf("%w: %d sections (max 65535)", ErrFormat, len(f.Sections))
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)
	if _, err := io.WriteString(out, Magic); err != nil {
		return err
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	if _, err := out.Write(u16[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(u16[:], uint16(len(f.Sections)))
	if _, err := out.Write(u16[:]); err != nil {
		return err
	}
	var u32 [4]byte
	for _, s := range f.Sections {
		if len(s.ID) == 0 || len(s.ID) > 255 {
			return fmt.Errorf("%w: section id %q must be 1..255 bytes", ErrFormat, s.ID)
		}
		if len(s.Data) > maxSectionLen {
			return fmt.Errorf("%w: section %q payload %d bytes exceeds %d", ErrFormat, s.ID, len(s.Data), maxSectionLen)
		}
		if _, err := out.Write([]byte{byte(len(s.ID))}); err != nil {
			return err
		}
		if _, err := io.WriteString(out, s.ID); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s.Data)))
		if _, err := out.Write(u32[:]); err != nil {
			return err
		}
		if _, err := out.Write(s.Data); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(s.Data))
		if _, err := out.Write(u32[:]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(out, trailerMagic); err != nil {
		return err
	}
	// The trailer CRC covers everything written so far, trailer magic
	// included; it goes to w only (it cannot cover itself).
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err := w.Write(u32[:])
	return err
}

// Decode reads a container from r. It consumes exactly one container and
// returns typed errors for every defect class; on error the returned File
// is nil.
func Decode(r io.Reader) (*File, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	head := make([]byte, len(Magic)+4)
	if err := readFull(tr, head); err != nil {
		return nil, err
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint16(head[len(Magic):]); v != Version {
		return nil, &VersionError{Got: v}
	}
	count := int(binary.LittleEndian.Uint16(head[len(Magic)+2:]))
	f := &File{}
	var u32 [4]byte
	for i := 0; i < count; i++ {
		var idLen [1]byte
		if err := readFull(tr, idLen[:]); err != nil {
			return nil, err
		}
		if idLen[0] == 0 {
			return nil, fmt.Errorf("%w: zero-length section id", ErrFormat)
		}
		id := make([]byte, idLen[0])
		if err := readFull(tr, id); err != nil {
			return nil, err
		}
		if err := readFull(tr, u32[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(u32[:])
		if n > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q declares %d bytes (max %d)", ErrFormat, id, n, maxSectionLen)
		}
		data := make([]byte, n)
		if err := readFull(tr, data); err != nil {
			return nil, err
		}
		if err := readFull(tr, u32[:]); err != nil {
			return nil, err
		}
		want := binary.LittleEndian.Uint32(u32[:])
		if got := crc32.ChecksumIEEE(data); got != want {
			return nil, &ChecksumError{Section: string(id), Want: want, Got: got}
		}
		f.Sections = append(f.Sections, Section{ID: string(id), Data: data})
	}
	tail := make([]byte, len(trailerMagic))
	if err := readFull(tr, tail); err != nil {
		return nil, err
	}
	if string(tail) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrFormat, tail)
	}
	sum := crc.Sum32() // covers header, sections, trailer magic
	if err := readFull(r, u32[:]); err != nil {
		return nil, err
	}
	if want := binary.LittleEndian.Uint32(u32[:]); want != sum {
		return nil, &ChecksumError{Want: want, Got: sum}
	}
	return f, nil
}

// readFull reads exactly len(p) bytes, mapping every short read onto
// ErrTruncated: a checkpoint has a declared shape, so "the file ended" is
// always truncation, never a clean EOF.
func readFull(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: unexpected end of file", ErrTruncated)
		}
		return err
	}
	return nil
}
