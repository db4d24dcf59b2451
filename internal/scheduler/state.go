package scheduler

import (
	"fmt"

	"dare/internal/mapreduce"
	"dare/internal/snapshot"
)

// State images for the scheduler queues. Job identity is the job ID; the
// decode side resolves IDs back to live *Job pointers through the
// tracker's registered jobs, and rebuilds the queues in serialized
// order, so a restored queue re-encodes to the image it came from.

// WalkState walks the FIFO queue order.
func (s *FIFO) WalkState(w *snapshot.Walker, jobs map[int32]*mapreduce.Job) error {
	return walkQueue(w, "fifo", &s.jobs, jobs, nil)
}

// WalkState walks the Fair scheduler's job order and per-job
// delay-scheduling skip counts.
func (s *Fair) WalkState(w *snapshot.Walker, jobs map[int32]*mapreduce.Job) error {
	snapshot.Int(w, &s.MaxSkips)
	snapshot.Int(w, &s.RackSkips)
	if w.Decoding() {
		s.skips = make(map[*mapreduce.Job]int)
	}
	return walkQueue(w, "fair", &s.jobs, jobs, func(j *mapreduce.Job) {
		// Every queued job has an entry, so encoding stores it back as is.
		skips := s.skips[j]
		snapshot.Int(w, &skips)
		s.skips[j] = skips
	})
}

// walkQueue walks a job queue as its length and, per job, the job ID
// followed by whatever each walks. Decoding resolves each ID among jobs.
func walkQueue(w *snapshot.Walker, name string, q *[]*mapreduce.Job, jobs map[int32]*mapreduce.Job, each func(*mapreduce.Job)) error {
	snapshot.Len(w, q, 8)
	for i, j := range *q {
		id := 0
		if j != nil {
			id = j.Spec.ID
		}
		snapshot.Int(w, &id)
		if w.Decoding() {
			if j = jobs[int32(id)]; j == nil {
				return fmt.Errorf("scheduler: %s state names unknown job %d", name, id)
			}
			(*q)[i] = j
		}
		if each != nil {
			each(j)
		}
	}
	return w.Err()
}
