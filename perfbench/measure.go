package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the user plus system CPU time of the whole process, every
// thread included (the GC's background workers run on other threads).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)*1e-6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)*1e-6
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gcCPUSeconds is the runtime's estimate of CPU time spent on garbage
// collection so far, background workers and mutator assists together.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// sample is the cost of one timed region.
type sample struct {
	cpu, wall float64
	allocs    uint64
	gcCPU     float64
}

func (s *sample) add(o sample) {
	s.cpu += o.cpu
	s.wall += o.wall
	s.allocs += o.allocs
	s.gcCPU += o.gcCPU
}

// cheapest combines repetitions of one timed region field by field: the
// least CPU, the least wall time, the fewest allocations.
func cheapest(reps []sample) sample {
	c := reps[0]
	for _, s := range reps[1:] {
		c.cpu = min(c.cpu, s.cpu)
		c.wall = min(c.wall, s.wall)
		c.allocs = min(c.allocs, s.allocs)
		c.gcCPU = min(c.gcCPU, s.gcCPU)
	}
	return c
}

// region times one stretch of work. It collects garbage first so that no
// earlier work's collection lands inside the region.
type region struct {
	cpu   float64
	gc    float64
	mall  uint64
	start time.Time
}

func startRegion() region {
	runtime.GC()
	r := region{mall: mallocs(), gc: gcCPUSeconds()}
	r.cpu = cpuSeconds()
	r.start = time.Now()
	return r
}

func (r region) stop() sample {
	wall := time.Since(r.start).Seconds()
	cpu := cpuSeconds() - r.cpu
	return sample{cpu: cpu, wall: wall, allocs: mallocs() - r.mall, gcCPU: gcCPUSeconds() - r.gc}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum returns the smallest value of xs, or 0 for no values.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}
