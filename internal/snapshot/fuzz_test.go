package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to Decode. The invariants:
// Decode never panics; when it accepts the input, re-encoding the decoded
// File reproduces the accepted bytes exactly (Encode∘Decode is a
// byte-level fixed point); when it rejects, the error is one of the typed
// snapshot classes.
func FuzzSnapshotRoundTrip(f *testing.F) {
	var valid bytes.Buffer
	sample := &File{Sections: []Section{
		{ID: "spec", Data: []byte(`{"seed":1}`)},
		{ID: "state", Data: []byte{0, 1, 2, 3}},
	}}
	if err := sample.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid.Bytes()[:valid.Len()/2])
	mut := append([]byte(nil), valid.Bytes()...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := dec.Encode(&re); err != nil {
			t.Fatalf("re-encode of accepted file failed: %v", err)
		}
		// Decode consumes exactly one container; the accepted prefix must
		// re-encode byte-identically.
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatal("Encode(Decode(data)) differs from accepted input")
		}
	})
}
