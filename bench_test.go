package dare

// BenchmarkExperiment regenerates every table and figure of the
// evaluation end-to-end, one sub-benchmark per registry entry, at a
// reduced-but-faithful scale (the full 500-job versions are what
// `dare-bench` prints; the benchmarks keep iterations short enough for
// -bench=. to be routine). What each table prints is pinned by the
// dare-bench golden files.

import (
	"testing"
)

const (
	benchJobs = 120
	benchSeed = 42
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range Experiments() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ExperimentParams{Jobs: benchJobs, Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleRun measures one end-to-end 500-job CCT simulation with
// the headline DARE configuration — the unit of work every figure above
// repeats.
func BenchmarkSingleRun(b *testing.B) {
	wl := WL1(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Run(Options{
			Profile:   CCT(),
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    DefaultPolicy(),
			Seed:      benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Summary.Jobs != 500 {
			b.Fatal("incomplete run")
		}
	}
}
