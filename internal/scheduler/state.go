package scheduler

import (
	"fmt"

	"dare/internal/mapreduce"
	"dare/internal/snapshot"
)

// State images for the scheduler queues. Job identity is the job ID; the
// decode side resolves IDs back to live *Job pointers through a lookup
// supplied by the tracker restore, and rebuilds the queues in serialized
// order, so a restored queue re-encodes to the image it came from.

// EncodeState serializes the FIFO queue order.
func (s *FIFO) EncodeState(e *snapshot.Enc) {
	e.U32(uint32(len(s.jobs)))
	for _, j := range s.jobs {
		e.Int(j.Spec.ID)
	}
}

// DecodeState rebuilds the FIFO queue from job IDs.
func (s *FIFO) DecodeState(d *snapshot.Dec, job func(id int) *mapreduce.Job) error {
	n := d.Count(8)
	if d.Err() != nil {
		return d.Err()
	}
	s.jobs = s.jobs[:0]
	for i := 0; i < n; i++ {
		id := d.Int()
		j := job(id)
		if j == nil {
			return fmt.Errorf("scheduler: fifo state names unknown job %d", id)
		}
		s.jobs = append(s.jobs, j)
	}
	return d.Err()
}

// EncodeState serializes the Fair scheduler's job order and per-job
// delay-scheduling skip counts.
func (s *Fair) EncodeState(e *snapshot.Enc) {
	e.Int(s.MaxSkips)
	e.Int(s.RackSkips)
	e.U32(uint32(len(s.jobs)))
	for _, j := range s.jobs {
		e.Int(j.Spec.ID)
		e.Int(s.skips[j])
	}
}

// DecodeState rebuilds the Fair scheduler's queue and skip counts.
func (s *Fair) DecodeState(d *snapshot.Dec, job func(id int) *mapreduce.Job) error {
	s.MaxSkips = d.Int()
	s.RackSkips = d.Int()
	n := d.Count(8)
	if d.Err() != nil {
		return d.Err()
	}
	s.jobs = s.jobs[:0]
	if s.skips == nil {
		s.skips = make(map[*mapreduce.Job]int, n)
	}
	clear(s.skips)
	for i := 0; i < n; i++ {
		id := d.Int()
		skips := d.Int()
		j := job(id)
		if j == nil {
			return fmt.Errorf("scheduler: fair state names unknown job %d", id)
		}
		s.jobs = append(s.jobs, j)
		s.skips[j] = skips
	}
	return d.Err()
}
