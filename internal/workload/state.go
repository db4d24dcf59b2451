package workload

import (
	"dare/internal/snapshot"
	"dare/internal/stats"
)

// WalkJob walks one Job verbatim. The tracker's state image uses it for
// jobs appended by the stream generator (batch jobs ride in the
// checkpoint spec instead), and the stream cursor for its look-ahead job.
func WalkJob(w *snapshot.Walker, j *Job) {
	snapshot.Int(w, &j.ID)
	w.F64(&j.Arrival)
	snapshot.Int(w, &j.File)
	snapshot.Int(w, &j.FirstBlock)
	snapshot.Int(w, &j.NumMaps)
	w.F64(&j.CPUPerTask)
	snapshot.Int(w, &j.NumReduces)
	w.F64(&j.ReduceTime)
	snapshot.Int(w, &j.OutputBlocks)
	w.Str(&j.Pool)
}

// WalkState walks the stream generator's complete position: the
// synthesizer clock and cursors, every per-dimension RNG stream, the
// emitted count, and the buffered look-ahead job. A stream rebuilt from
// the same StreamConfig (the checkpoint spec stores it) and restored from
// this image emits the identical future.
func (st *Stream) WalkState(w *snapshot.Walker) error {
	s := st.s
	w.F64(&s.now)
	snapshot.Int(w, &s.prevFile)
	snapshot.Int(w, &s.next)
	for _, g := range []*stats.RNG{s.popG, s.arrG, s.sizeG, s.cpuG, s.outG} {
		if err := g.WalkState(w); err != nil {
			return err
		}
	}
	snapshot.Int(w, &st.emitted)
	pending := st.pending != nil
	w.Bool(&pending)
	if !pending {
		st.pending = nil
	} else if st.pending == nil {
		st.pending = new(Job)
	}
	if pending {
		WalkJob(w, st.pending)
	}
	return w.Err()
}
