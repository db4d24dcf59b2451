package scheduler

import (
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
)

// DefaultMaxSkips is the default delay-scheduling patience, measured in
// skipped scheduling opportunities, matching the Hadoop fair scheduler's
// locality-delay implementation (Zaharia et al., EuroSys'10, Algorithm 1):
// a job with no node-local work on the offering node is passed over; after
// being skipped this many times it is allowed to launch non-locally.
const DefaultMaxSkips = 8

// Fair implements fair sharing with delay scheduling. Each free slot is
// offered to the active jobs with pending maps, ordered by how far below
// their fair share they run (fewest running maps first, arrival order as
// tie-break). A job launches immediately when it has a node-local block
// on the offering node; otherwise its skip count grows, and once it
// exceeds MaxSkips the job accepts a non-local launch (rack-local
// preferred). Any launch resets the job's skip count. The zero value is
// usable (both patience levels 0: no delay).
type Fair struct {
	// MaxSkips is the node-level delay-scheduling patience in scheduling
	// opportunities (Zaharia's D1): a job may launch rack-local once it
	// has been skipped this many times.
	MaxSkips int
	// RackSkips is the additional rack-level patience (D2): off-rack
	// launches are allowed only after MaxSkips+RackSkips skips. On a
	// single-rack cluster this second level is moot (everything is
	// rack-local); on the multi-rack EC2 profile it is what keeps traffic
	// inside the rack.
	RackSkips int

	jobs  []*mapreduce.Job
	skips map[*mapreduce.Job]int
	// scratch is the reusable per-offer fair-order slice, and poolLoad the
	// reusable pool-load accumulator (filled only when the jobs being
	// ordered span more than one pool).
	scratch  []*mapreduce.Job
	poolLoad map[string]int
}

// NewFair returns a Fair scheduler with the given node-level patience;
// non-positive means DefaultMaxSkips. The rack-level patience is the same
// value; a Fair literal sets the two levels apart.
func NewFair(maxSkips int) *Fair {
	if maxSkips <= 0 {
		maxSkips = DefaultMaxSkips
	}
	return &Fair{MaxSkips: maxSkips, RackSkips: maxSkips}
}

// Name implements mapreduce.TaskSelector.
func (s *Fair) Name() string { return "fair" }

// AddJob implements mapreduce.TaskSelector.
func (s *Fair) AddJob(j *mapreduce.Job) {
	if s.skips == nil {
		s.skips = make(map[*mapreduce.Job]int)
	}
	s.jobs = append(s.jobs, j)
	s.skips[j] = 0
}

// RemoveJob implements mapreduce.TaskSelector.
func (s *Fair) RemoveJob(j *mapreduce.Job) {
	for i, cur := range s.jobs {
		if cur == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	delete(s.skips, j)
}

// fairOrder fills scratch with the jobs that have pending maps, in
// hierarchical fair order, the Hadoop Fair Scheduler's two-level policy:
// pools are ordered by their total running maps (the pool furthest below
// its share of the cluster first), and within a pool jobs are ordered by
// their own running maps. Arrival order is the stable tie-break at both
// levels. With a single pool this degenerates to plain job-level fair
// sharing.
//
// Jobs without pending maps cannot take the slot, so they are left out;
// a stable order of the rest is the same as their relative order in a
// stable sort of every job. Only a handful of jobs have pending maps at
// any offer, so a stable insertion sort is cheaper than a general sort
// and allocates nothing.
func (s *Fair) fairOrder() []*mapreduce.Job {
	order := s.scratch[:0]
	multiPool := false
	for _, j := range s.jobs {
		if j.PendingMaps() == 0 {
			continue
		}
		if len(order) > 0 && j.Spec.Pool != order[0].Spec.Pool {
			multiPool = true
		}
		order = append(order, j)
	}
	if multiPool {
		// A pool's load counts every job in it, pending maps or not.
		if s.poolLoad == nil {
			s.poolLoad = make(map[string]int, 4)
		}
		clear(s.poolLoad)
		for _, j := range s.jobs {
			s.poolLoad[j.Spec.Pool] += j.RunningMaps()
		}
	}
	for i := 1; i < len(order); i++ {
		j := order[i]
		k := i
		for k > 0 && s.before(j, order[k-1], multiPool) {
			order[k] = order[k-1]
			k--
		}
		order[k] = j
	}
	s.scratch = order
	return order
}

// before reports whether ja strictly precedes jb in fair order. Pool load
// is compared only across pools, so it is read only when multiPool.
func (s *Fair) before(ja, jb *mapreduce.Job, multiPool bool) bool {
	if multiPool && ja.Spec.Pool != jb.Spec.Pool {
		la, lb := s.poolLoad[ja.Spec.Pool], s.poolLoad[jb.Spec.Pool]
		if la != lb {
			return la < lb
		}
		return ja.Spec.Pool < jb.Spec.Pool
	}
	return ja.RunningMaps() < jb.RunningMaps()
}

// SelectMapTask implements mapreduce.TaskSelector with delay scheduling
// (Zaharia et al., Algorithm 1): in fair order, a job with a node-local
// block launches it right away; a job that has exhausted its skip budget
// launches non-locally; otherwise the job is skipped and its budget
// shrinks.
func (s *Fair) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	for _, j := range s.fairOrder() {
		if b, ok := j.TakeLocalBlock(node); ok {
			s.skips[j] = 0
			return j, b, true
		}
		if s.skips[j] >= s.MaxSkips {
			if b, ok := j.TakeRackLocalBlock(node); ok {
				s.skips[j] = 0
				return j, b, true
			}
			if s.skips[j] >= s.MaxSkips+s.RackSkips {
				if b, ok := j.TakeAnyBlock(); ok {
					s.skips[j] = 0
					return j, b, true
				}
			}
		}
		s.skips[j]++
	}
	return nil, 0, false
}

// SelectReduceTask implements mapreduce.TaskSelector: the job furthest
// below its fair reduce share (fewest running reduces) goes first.
func (s *Fair) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	var best *mapreduce.Job
	for _, j := range s.jobs {
		if j.PendingReduces() == 0 {
			continue
		}
		if best == nil || j.RunningReduces() < best.RunningReduces() {
			best = j
		}
	}
	return best, best != nil
}

// FromName builds a scheduler by CLI name ("fifo" or "fair"); maxSkips
// only applies to fair (<= 0 uses the default).
func FromName(name string, maxSkips int) (mapreduce.TaskSelector, bool) {
	switch name {
	case "fifo":
		return NewFIFO(), true
	case "fair", "fair-delay", "delay":
		return NewFair(maxSkips), true
	}
	return nil, false
}
