// Package metrics computes the paper's evaluation quantities (§V-A):
//
//   - Data locality: the fraction of map tasks that ran node-local, the
//     headline system metric of Figs. 7a, 8, 9, 10a.
//   - GMTT: the geometric mean of job turnaround times (eq. 1), Figs. 7b
//     and 10b.
//   - Slowdown: turnaround on the loaded system over running time on a
//     dedicated 100%-local cluster, Figs. 7c and 10c.
//   - Popularity index and its coefficient of variation: the uniformity of
//     replica placement relative to data popularity, Fig. 11.
package metrics

import (
	"math"

	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/stats"
	"dare/internal/topology"
)

// RunSummary aggregates one simulation run into the quantities the figures
// plot.
type RunSummary struct {
	Jobs int
	// TaskLocality is total node-local map tasks over total map tasks.
	TaskLocality float64
	// JobLocality is the unweighted mean of per-job locality — the "data
	// locality of jobs" of Fig. 7a.
	JobLocality float64
	// RackFraction and RemoteFraction complete the task breakdown.
	RackFraction, RemoteFraction float64
	// GMTT is the geometric mean turnaround time in seconds (eq. 1).
	GMTT float64
	// MeanSlowdown is the mean of per-job slowdowns (§V-A).
	MeanSlowdown float64
	// MeanMapTime is the mean map-task wall-clock duration in seconds
	// (§V-C's map completion time).
	MeanMapTime float64
	// Makespan is the finish time of the last job.
	Makespan float64
	// NetworkBytes is the total input bytes moved over the fabric by
	// non-local map tasks (the traffic DARE's locality gains remove).
	NetworkBytes int64
	// FailedJobs counts jobs that ended in failure (a task exhausted its
	// attempt limit under churn); zero in failure-free runs.
	FailedJobs int

	// Policy activity (zero for vanilla runs).
	ReplicasCreated int64
	Evictions       int64
	DiskWrites      int64
	// BlocksPerJob is replicas created per job — the bottom panels of
	// Figs. 8 and 9.
	BlocksPerJob float64
}

// Summarize reduces per-job results and the (possibly zero) policy
// counters into a RunSummary.
func Summarize(results []mapreduce.Result, pol core.PolicyStats) RunSummary {
	var s RunSummary
	s.Jobs = len(results)
	if s.Jobs == 0 {
		return s
	}
	var totalMaps, localMaps, rackMaps, remoteMaps int
	var mapTimeSum float64
	var netBytes int64
	tts := make([]float64, 0, len(results))
	var slowSum, jobLocSum float64
	for _, r := range results {
		totalMaps += r.NumMaps
		localMaps += r.Local
		rackMaps += r.Rack
		remoteMaps += r.Remote
		mapTimeSum += r.MapTimeSum
		netBytes += r.RemoteBytes
		tts = append(tts, r.Turnaround)
		slowSum += r.Slowdown()
		jobLocSum += r.Locality()
		if r.Finish > s.Makespan {
			s.Makespan = r.Finish
		}
		if r.Failed {
			s.FailedJobs++
		}
	}
	if totalMaps > 0 {
		s.TaskLocality = float64(localMaps) / float64(totalMaps)
		s.RackFraction = float64(rackMaps) / float64(totalMaps)
		s.RemoteFraction = float64(remoteMaps) / float64(totalMaps)
		s.MeanMapTime = mapTimeSum / float64(totalMaps)
	}
	s.JobLocality = jobLocSum / float64(s.Jobs)
	s.NetworkBytes = netBytes
	s.GMTT = stats.GeometricMean(tts)
	s.MeanSlowdown = slowSum / float64(s.Jobs)
	s.ReplicasCreated = pol.ReplicasCreated
	s.Evictions = pol.Evictions
	s.DiskWrites = pol.DiskWrites()
	s.BlocksPerJob = float64(pol.ReplicasCreated) / float64(s.Jobs)
	return s
}

// PopularityIndices computes each node's popularity index (§V-A):
// PI_i = Σ_j blockSize_j × blockPopularity_j over blocks j stored on node
// i. blockPop[f][k] is the access count of block k of workload file f, and
// files maps workload file index to its DFS file.
func PopularityIndices(nn *dfs.NameNode, files []*dfs.File, blockPop [][]int) []float64 {
	pop := nn.BlockWeights(files, blockPop)
	out := make([]float64, nn.N())
	for n := 0; n < nn.N(); n++ {
		var pi float64
		nn.ForEachNodeBlock(topology.NodeID(n), func(b dfs.BlockID) {
			if p := pop[b]; p > 0 {
				pi += float64(nn.Block(b).Size) * p
			}
		})
		out[n] = pi
	}
	return out
}

// PlacementCV reports the coefficient of variation of the nodes'
// popularity indices — Fig. 11's y-axis. Smaller is more uniform.
func PlacementCV(nn *dfs.NameNode, files []*dfs.File, blockPop [][]int) float64 {
	cv := stats.CoefficientOfVariation(PopularityIndices(nn, files, blockPop))
	if math.IsNaN(cv) {
		return 0
	}
	return cv
}

// LocalityTimeline buckets per-job locality into n consecutive groups of
// the job stream (by job ID order), exposing convergence/adaptation
// dynamics: DARE's locality climbs as replicas accumulate, dips at
// popularity shifts, and recovers.
func LocalityTimeline(results []mapreduce.Result, n int) []float64 {
	if n <= 0 || len(results) == 0 {
		return nil
	}
	if n > len(results) {
		n = len(results)
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	for i, r := range results {
		b := i * n / len(results)
		sums[b] += r.Locality()
		counts[b]++
	}
	out := make([]float64, n)
	for b := range out {
		if counts[b] > 0 {
			out[b] = sums[b] / float64(counts[b])
		}
	}
	return out
}
