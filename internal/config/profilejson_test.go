package config

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dare/internal/stats"
)

// FuzzProfileJSON hammers the exact profile codec every checkpoint spec
// embeds: any input decodes to a typed error or to a profile that
// re-encodes to a fixed point and, when it validates, whose performance
// models sample; decoding allocates at most linearly in the input.
func FuzzProfileJSON(f *testing.F) {
	for _, p := range []*Profile{CCT(), EC2()} {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(sampleProfileJSON))
	paths, err := filepath.Glob(filepath.Join("..", "..", "configs", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed files in configs/ (%v)", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Profile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := json.Unmarshal(data, &p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded profile does not encode: %v", err)
		}
		var again Profile
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s (%v)", out, out2, err)
		}
		if p.Validate() != nil {
			return
		}
		g := stats.NewRNG(1)
		p.DiskBW.Sample(g)
		p.NetBW.Sample(g)
		p.RTT.Sample(g)
	})
}
