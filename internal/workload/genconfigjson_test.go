package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dare/internal/stats"
)

// FuzzGenConfigJSON hammers the generator-config codec a stream
// checkpoint spec embeds: any input decodes to a typed error or to a
// config that re-encodes to a fixed point and whose distributions
// sample; decoding allocates at most linearly in the input.
func FuzzGenConfigJSON(f *testing.F) {
	for _, c := range []GenConfig{
		{},
		GenConfig{NumJobs: 120, NumFiles: 15, Seed: 5}.withDefaults(),
		GenConfig{Name: "wl2", NumJobs: 1000, Seed: 15, BurstProb: 0.8, LargeEvery: 10, Pools: 3}.withDefaults(),
	} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
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
		var c GenConfig
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := json.Unmarshal(data, &c)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("decoded config does not encode: %v", err)
		}
		var again GenConfig
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s (%v)", out, out2, err)
		}
		g := stats.NewRNG(1)
		for _, d := range []stats.Dist{c.SmallMaps, c.LargeMaps, c.CPUPerTask, c.OutputRatio} {
			if d != nil {
				d.Sample(g)
			}
		}
	})
}
