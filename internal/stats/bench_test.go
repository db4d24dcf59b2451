package stats

import (
	"testing"

	"dare/internal/snapshot"
)

func BenchmarkZipfRank(b *testing.B) {
	z := NewZipf(10000, 1.2, 0)
	g := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Rank(g)
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	d := LogNormalFromMoments(141.5, 74.2)
	g := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(g)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	g := NewRNG(1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = g.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&1023])
	}
}

func BenchmarkECDFAt(b *testing.B) {
	g := NewRNG(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = g.Float64()
	}
	e := NewECDF(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(0.5)
	}
}

func BenchmarkDiscreteCDFSample(b *testing.B) {
	w := make([]float64, 1000)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	d, err := NewDiscreteCDFFromWeights(w)
	if err != nil {
		b.Fatal(err)
	}
	g := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(g)
	}
}

// BenchmarkRNGEncodeState measures writing a used stream's full state
// image, the per-stream cost of a checkpoint.
func BenchmarkRNGEncodeState(b *testing.B) {
	g := NewRNG(1)
	g.Float64()
	e := snapshot.NewEnc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if err := g.WalkState(snapshot.WalkEnc(e)); err != nil {
			b.Fatal(err)
		}
	}
}

// splitSink keeps BenchmarkSplit's streams on the heap, as a rule tree
// keeps them.
var splitSink *RNG

// BenchmarkSplit measures deriving a sub-stream that never draws, the
// per-node cost of wiring a rule tree.
func BenchmarkSplit(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		splitSink = g.Split(uint64(i))
	}
}
