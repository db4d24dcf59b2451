package event

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadEventLog hammers the JSONL trace reader trace-analyze runs on
// files from disk: any input yields an error or a list of known-kind
// events, never a panic, and the reader allocates in proportion to its
// input. Seeds are a recorder-written trace holding every kind, a
// forward-compatible trace with an unknown kind, and malformed lines.
func FuzzReadEventLog(f *testing.F) {
	var trace bytes.Buffer
	rec := NewRecorder(&trace)
	for k := Kind(1); int(k) < NumKinds; k++ {
		ev := New(k)
		ev.Time = float64(k) / 3
		ev.Node, ev.Rack, ev.Job, ev.File, ev.Block = int32(k), 1, 2, 3, int64(k)*7
		ev.Aux, ev.Flag = -int64(k), k%2 == 0
		rec.HandleEvent(ev)
	}
	if err := rec.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add([]byte("{\"t\":1,\"kind\":\"replica-add\",\"node\":3}\r\n\n  \n{\"t\":2,\"kind\":\"quantum-entangle\"}\n"))
	f.Add([]byte(`{"t":1,"kind":`))
	f.Add([]byte("{}\n[]\nnull\n{\"kind\":\"heartbeat\",\"node\":-7,\"block\":1e3}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		evs, skipped, err := ReadLogSkipped(bytes.NewReader(data))
		runtime.ReadMemStats(&after)

		// The scanner's line buffer grows to at most 1 MiB (about 2 MiB
		// allocated over its doublings); everything else is per line.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+512*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err != nil {
			if evs != nil {
				t.Fatalf("error %v returned with %d events", err, len(evs))
			}
			return
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; len(evs)+skipped > lines {
			t.Fatalf("%d events + %d skipped from %d lines", len(evs), skipped, lines)
		}
		for i, ev := range evs {
			if ev.Kind == KindNone || int(ev.Kind) >= NumKinds {
				t.Fatalf("event %d has kind %d outside the known kinds", i, ev.Kind)
			}
		}
	})
}
