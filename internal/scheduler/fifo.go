// Package scheduler implements the two Hadoop schedulers the paper
// evaluates DARE under (§V-A):
//
//   - FIFO (Hadoop's default): jobs are served strictly in arrival order.
//     The head-of-line job receives every offered slot, taking a
//     node-local block when it has one on the offering node, falling back
//     to rack-local and then any block. Small jobs therefore achieve poor
//     locality (Zaharia et al. [10]) — the regime where DARE's extra
//     replicas help most (Fig. 7a shows >7× improvement).
//
//   - Fair with delay scheduling (Zaharia et al., EuroSys'10): slots are
//     offered to the job furthest below its fair share; a job with no
//     node-local work on the offering node is skipped for up to a small
//     delay D before it is allowed to launch non-locally.
//
// Both schedulers are DARE-oblivious: they read replica locations from the
// name node and never learn which replicas are dynamic, preserving the
// paper's scheduler-agnostic property.
package scheduler

import (
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
)

// FIFO is Hadoop's default scheduler: strict arrival order.
type FIFO struct {
	jobs []*mapreduce.Job
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements mapreduce.TaskSelector.
func (s *FIFO) Name() string { return "fifo" }

// AddJob implements mapreduce.TaskSelector. Jobs arrive in submission
// order, so appending preserves FIFO order.
func (s *FIFO) AddJob(j *mapreduce.Job) { s.jobs = append(s.jobs, j) }

// RemoveJob implements mapreduce.TaskSelector.
func (s *FIFO) RemoveJob(j *mapreduce.Job) {
	for i, cur := range s.jobs {
		if cur == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			return
		}
	}
}

// SelectMapTask implements mapreduce.TaskSelector: the first job in
// arrival order with pending maps gets the slot — node-local block if it
// has one here, else rack-local, else any.
func (s *FIFO) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	for _, j := range s.jobs {
		if j.PendingMaps() == 0 {
			continue
		}
		if b, ok := j.TakeLocalBlock(node); ok {
			return j, b, true
		}
		if b, ok := j.TakeRackLocalBlock(node); ok {
			return j, b, true
		}
		if b, ok := j.TakeAnyBlock(); ok {
			return j, b, true
		}
	}
	return nil, 0, false
}

// SelectReduceTask implements mapreduce.TaskSelector: first job in arrival
// order whose map phase finished and has reduces pending.
func (s *FIFO) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	for _, j := range s.jobs {
		if j.PendingReduces() > 0 {
			return j, true
		}
	}
	return nil, false
}
