package scheduler

import (
	"testing"

	"dare/internal/config"
	"dare/internal/mapreduce"
	"dare/internal/topology"
	"dare/internal/workload"
)

func benchJobs(b *testing.B, c *mapreduce.Cluster, n int) []*mapreduce.Job {
	b.Helper()
	f, err := createFile(c.NN, "bench", 200, c.Profile.BlockSizeBytes())
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]*mapreduce.Job, n)
	for i := range jobs {
		spec := workload.Job{ID: i, Arrival: float64(i), File: 0, FirstBlock: (i * 7) % 180, NumMaps: 10, CPUPerTask: 1}
		jobs[i] = mapreduce.NewJob(spec, f, c)
	}
	return jobs
}

// BenchmarkFIFOSelect measures the head-of-line selection path with a deep
// queue.
func BenchmarkFIFOSelect(b *testing.B) {
	p := config.CCT()
	c, err := mapreduce.NewCluster(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewFIFO()
	for _, j := range benchJobs(b, c, 50) {
		s.AddJob(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, blk, ok := s.SelectMapTask(topology.NodeID(i%19), 0)
		if ok {
			// Put the block back so the queue never drains.
			s.RemoveJob(j)
			s.AddJob(j)
			_ = blk
			b.StopTimer()
			refill(b, c, s, j)
			b.StartTimer()
		}
	}
}

// refill replaces a drained job with a fresh identical one.
func refill(b *testing.B, c *mapreduce.Cluster, s *FIFO, old *mapreduce.Job) {
	if old.PendingMaps() > 0 {
		return
	}
	s.RemoveJob(old)
	spec := old.Spec
	s.AddJob(mapreduce.NewJob(spec, old.File, c))
}

// BenchmarkFairSelect measures one map offer under the traffic of a
// fair-scheduled run: about 60 active jobs, of which only one or two
// still have pending maps (the rest wait on running maps or reduces). The
// offer orders only the pending jobs and then runs the delay-scheduling
// bookkeeping; it should allocate nothing.
func BenchmarkFairSelect(b *testing.B) {
	p := config.CCT()
	c, err := mapreduce.NewCluster(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := NewFair(8)
	jobs := benchJobs(b, c, 60)
	for i, j := range jobs {
		if i%30 != 29 {
			for j.PendingMaps() > 0 {
				j.TakeAnyBlock()
			}
		}
		s.AddJob(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, _, ok := s.SelectMapTask(topology.NodeID(i%19), float64(i))
		if ok && j.PendingMaps() == 0 {
			b.StopTimer()
			s.RemoveJob(j)
			s.AddJob(mapreduce.NewJob(j.Spec, j.File, c))
			b.StartTimer()
		}
	}
}
