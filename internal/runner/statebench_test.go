package runner

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

func benchStateOpts() Options {
	return Options{
		Profile:   config.CCT(),
		Workload:  workload.WL1(7),
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      7,
	}
}

// crashedDurable drives opts under checkpointing until a staged crash at
// the second checkpoint, returning the live mid-run durable (its runState
// is stopped at an exact event boundary) and the checkpoint it wrote.
func crashedDurable(tb testing.TB, opts Options, path string, every uint64) (*durable, *snapshot.File) {
	tb.Helper()
	spec, err := SpecFromOptions(opts)
	if err != nil {
		tb.Fatal(err)
	}
	specData, err := encodeSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := newRunState(opts)
	if err != nil {
		tb.Fatal(err)
	}
	staged := errors.New("staged crash")
	d := &durable{rs: rs, specData: specData, ck: CheckpointSpec{
		Path: path, Every: every,
		AfterCheckpoint: func(n int) error {
			if n >= 2 {
				return staged
			}
			return nil
		},
	}}
	d.nextStop = rs.cluster.Eng.Processed() + every
	if _, err := rs.tracker.RunWith(d.drive); !errors.Is(err, staged) {
		tb.Fatalf("staged crash did not fire: %v", err)
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return d, f
}

// BenchmarkStateEncode measures building the full direct-state image of a
// live mid-run simulation — the per-checkpoint cost state-mode restore
// adds on the write side.
func BenchmarkStateEncode(b *testing.B) {
	d, _ := crashedDurable(b, benchStateOpts(), filepath.Join(b.TempDir(), "c.ckpt"), 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.imageSections(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateDecode measures applying a direct-state image at the
// first drive boundary of a freshly reconstructed run — the O(state) core
// of a state-mode resume. The interrupt line is raised before the run
// starts and the spec is unarmed (no checkpoint path), so the timed
// region is run start, the image decode, and the re-encode check: no
// events process and nothing durable is written. Reconstruction itself
// (newRunState) happens outside the timer — every resume mode pays it.
func BenchmarkStateDecode(b *testing.B) {
	path := filepath.Join(b.TempDir(), "c.ckpt")
	_, f := crashedDurable(b, benchStateOpts(), path, 2000)
	spec, cur, err := decodeCheckpoint(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs, err := newRunState(spec.Options)
		if err != nil {
			b.Fatal(err)
		}
		var stop atomic.Bool
		stop.Store(true)
		d := &durable{
			rs: rs, specData: mustSection(f, sectionSpec),
			ck:  CheckpointSpec{Interrupt: &stop},
			cut: &resumeCut{cursor: *cur, f: f, mode: ResumeState},
		}
		b.StartTimer()
		if _, err := rs.tracker.RunWith(d.drive); !errors.Is(err, ErrInterrupted) {
			b.Fatal(err)
		}
	}
}
