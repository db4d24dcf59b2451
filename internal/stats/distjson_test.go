package stats

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// decodeAllocBound is the most decoding n bytes of JSON may allocate.
func decodeAllocBound(n int) uint64 { return 64<<10 + 256*uint64(n) }

// FuzzDistJSON hammers the typed-union distribution decoder that every
// profile and generator config (and so every checkpoint spec) embeds:
// any input decodes to a typed error or to a distribution that samples
// and re-encodes to a fixed point, and decoding allocates at most
// linearly in the input.
func FuzzDistJSON(f *testing.F) {
	for _, d := range []Dist{
		Constant{V: 3},
		Uniform{Lo: 0, Hi: 1},
		Exponential{Lambda: 2},
		Normal{Mu: 157.8, Sigma: 8.02, Min: 145.3, Max: 167},
		LogNormal{Mu: -9, Sigma: 1.2},
		Pareto{Xm: 1, Alpha: 1.5},
		BoundedPareto{L: 1, H: 100, Alpha: 1.1},
		Mixture{Weights: []float64{0.8, 0.2}, Components: []Dist{Constant{V: 0.1}, Uniform{Lo: 1, Hi: 1.5}}},
		Clamped{D: LogNormal{Mu: -9, Sigma: 1.2}, Lo: 1e-5, Hi: 2.5e-3},
	} {
		b, err := json.Marshal(DistJSON{d})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"kind":"mixture","weights":[1]}`))
	f.Add([]byte(`{"kind":"clamped","lo":1}`))
	f.Add([]byte(strings.Repeat(`{"kind":"clamped","d":`, 80) + `{"kind":"constant","v":1}` + strings.Repeat(`}`, 80)))
	addConfigFiles(f, filepath.Join("..", "..", "configs"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d DistJSON
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := json.Unmarshal(data, &d)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil || d.Dist == nil {
			return
		}
		d.Sample(NewRNG(1))
		d.Mean()
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("decoded distribution %#v does not encode: %v", d.Dist, err)
		}
		var again DistJSON
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s (%v)", out, out2, err)
		}
	})
}

// addConfigFiles seeds f with every JSON file in dir.
func addConfigFiles(f *testing.F, dir string) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed files in %s (%v)", dir, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// TestDistJSONRejectsUnsampleable pins the decoder's structural checks:
// a distribution that decodes must sample.
func TestDistJSONRejectsUnsampleable(t *testing.T) {
	for _, src := range []string{
		`{"kind":"mixture"}`,
		`{"kind":"mixture","weights":[1,2],"components":[{"kind":"constant","v":1}]}`,
		`{"kind":"mixture","weights":[1],"components":[null]}`,
		`{"kind":"clamped","lo":0,"hi":1}`,
		`{"kind":"clamped","d":null}`,
		strings.Repeat(`{"kind":"clamped","d":`, maxDistNesting+1) + `{"kind":"constant","v":1}` +
			strings.Repeat(`}`, maxDistNesting+1),
	} {
		var d DistJSON
		if err := json.Unmarshal([]byte(src), &d); err == nil {
			t.Errorf("accepted %.60s as %#v", src, d.Dist)
		}
	}
	// Brackets inside strings do not nest.
	if n := nesting([]byte(`{"kind":"[[{\"[{","v":[1]}`)); n != 2 {
		t.Errorf("nesting = %d, want 2", n)
	}
}
