package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/workload"
)

// CheckpointRow is one arm of the checkpoint-overhead study (A19): the
// same CCT/wl1/FIFO/ElephantTrap run unarmed, armed at two cadences, and
// killed-then-resumed, with wall clock, durable-write counts, and
// byte-identity of the Output and event trace against the unarmed run.
type CheckpointRow struct {
	Arm string `json:"arm"`
	// WallSeconds is the arm's wall clock; for the kill+resume arm it is
	// the resume alone (replay + live tail), the recovery cost a crashed
	// service pays.
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of simulation events the arm processed.
	Events uint64 `json:"events"`
	// Checkpoints counts durable generations written; SnapshotBytes is the
	// size of one generation on disk.
	Checkpoints   int   `json:"checkpoints,omitempty"`
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// Identical reports whether the arm's Output JSON and JSONL event
	// trace are byte-identical to the unarmed baseline's.
	Identical bool `json:"identical"`
}

// CheckpointStudy measures what durable checkpoints cost (A19): run
// overhead at two cadences and the wall-clock price of crash-recovery by
// replay, each arm verified byte-identical to the unarmed baseline.
func CheckpointStudy(jobs int, seed uint64) ([]CheckpointRow, error) {
	opts := func(log *bytes.Buffer) Options {
		wl := workload.WL1(seed)
		if jobs > 0 && jobs < len(wl.Jobs) {
			wl.Jobs = wl.Jobs[:jobs]
		}
		return Options{
			Profile:   config.CCT(),
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    PolicyFor(core.ElephantTrapPolicy),
			Seed:      seed,
			EventLog:  log,
		}
	}
	outJSON := func(out *Output) ([]byte, error) { return json.Marshal(out) }

	dir, err := os.MkdirTemp("", "dare-ckpt-study")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Baseline: unarmed.
	var baseLog bytes.Buffer
	start := time.Now()
	events := TotalEventsProcessed()
	baseOut, err := Run(opts(&baseLog))
	if err != nil {
		return nil, err
	}
	baseJSON, err := outJSON(baseOut)
	if err != nil {
		return nil, err
	}
	rows := []CheckpointRow{{
		Arm:         "unarmed",
		WallSeconds: time.Since(start).Seconds(),
		Events:      TotalEventsProcessed() - events,
		Identical:   true,
	}}
	totalEvts := rows[0].Events

	// Armed arms: a tight cadence (worst case) and a relaxed one.
	cadences := []uint64{totalEvts/20 + 1, totalEvts/4 + 1}
	labels := []string{"armed-5%", "armed-25%"}
	var ckpts int
	for i, every := range cadences {
		path := filepath.Join(dir, fmt.Sprintf("arm%d.ckpt", i))
		var log bytes.Buffer
		n := 0
		start = time.Now()
		events = TotalEventsProcessed()
		out, err := RunCheckpointed(opts(&log), CheckpointSpec{
			Path: path, Every: every,
			AfterCheckpoint: func(done int) error { n = done; return nil },
		})
		if err != nil {
			return nil, err
		}
		j, err := outJSON(out)
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CheckpointRow{
			Arm:           labels[i],
			WallSeconds:   time.Since(start).Seconds(),
			Events:        TotalEventsProcessed() - events,
			Checkpoints:   n,
			SnapshotBytes: st.Size(),
			Identical:     bytes.Equal(j, baseJSON) && bytes.Equal(log.Bytes(), baseLog.Bytes()),
		})
		if i == 0 {
			ckpts = n
		}
	}

	// Kill at the midpoint checkpoint of the tight-cadence arm and resume:
	// the measured wall clock is the crash-recovery price (replay to the
	// cut plus the live tail).
	if ckpts < 2 {
		return nil, fmt.Errorf("runner: checkpoint study needs >= 2 checkpoints to stage a mid-run kill, got %d", ckpts)
	}
	crashErr := fmt.Errorf("staged crash")
	killPath := filepath.Join(dir, "kill.ckpt")
	if _, err := RunCheckpointed(opts(&bytes.Buffer{}), CheckpointSpec{
		Path: killPath, Every: cadences[0],
		AfterCheckpoint: func(done int) error {
			if done >= ckpts/2 {
				return crashErr
			}
			return nil
		},
	}); err != crashErr {
		return nil, fmt.Errorf("runner: staged crash did not fire: %v", err)
	}
	var resumeLog bytes.Buffer
	start = time.Now()
	events = TotalEventsProcessed()
	out, err := Resume(killPath, &resumeLog, CheckpointSpec{Path: killPath, Every: cadences[0]})
	if err != nil {
		return nil, err
	}
	j, err := outJSON(out)
	if err != nil {
		return nil, err
	}
	rows = append(rows, CheckpointRow{
		Arm:         fmt.Sprintf("kill@%d+resume", ckpts/2),
		WallSeconds: time.Since(start).Seconds(),
		Events:      TotalEventsProcessed() - events,
		Identical:   bytes.Equal(j, baseJSON) && bytes.Equal(resumeLog.Bytes(), baseLog.Bytes()),
	})
	return rows, nil
}

// ResumeLadderRow is one rung of the A19 resume-scaling ladder: the same
// scenario at growing run lengths, killed at a fraction of its
// checkpoints, then resumed in both modes with the interrupt line already
// raised — the measured wall clock is pure recovery latency (rebuild +
// restore-to-cut + one final checkpoint), no live tail. Replay recovery
// grows with the history replayed; state recovery decodes the image and
// stays flat.
type ResumeLadderRow struct {
	Jobs    int `json:"jobs"`
	KillPct int `json:"kill_pct"`
	// CutEvents is the processed-event count at the resumed cut — the
	// history a replay resume must re-execute.
	CutEvents     uint64  `json:"cut_events"`
	ReplaySeconds float64 `json:"replay_seconds"`
	StateSeconds  float64 `json:"state_seconds"`
	// Speedup is ReplaySeconds/StateSeconds.
	Speedup float64 `json:"speedup"`
}

// copyCheckpoint clones a checkpoint file so each resume mode starts from
// the pristine generation (a resume's final interrupt checkpoint rotates
// the file it resumed from).
func copyCheckpoint(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// ResumeLadder measures crash-recovery latency vs run length (A19): for
// each length and kill point, stage a crash, then resume with the
// interrupt line pre-raised so the run stops at the first live boundary —
// isolating O(history) replay vs O(state) restore. Each mode is timed
// best-of-3 from its own copy of the checkpoint.
func ResumeLadder(seed uint64) ([]ResumeLadderRow, error) {
	dir, err := os.MkdirTemp("", "dare-resume-ladder")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A big-job trace: few jobs, each carrying 150-250 maps. Replayable
	// history (every task launch, read, and completion) grows with total
	// work, while the live state at a cut stays close to O(jobs) — the
	// separation the ladder is built to expose. A plain wl1 trace at these
	// event counts would need tens of thousands of jobs, and the O(jobs)
	// reconstruction cost both modes share would drown the contrast.
	mk := func(n int) Options {
		return Options{
			Profile: config.CCT(),
			Workload: workload.Generate(workload.GenConfig{
				Name: "wl1", Seed: seed, NumJobs: n,
				SmallMaps:        stats.Uniform{Lo: 150, Hi: 250},
				MeanInterarrival: 2.0,
			}),
			Scheduler: "fifo",
			Policy:    PolicyFor(core.ElephantTrapPolicy),
			Seed:      seed,
		}
	}
	resume := func(path string, every uint64, mode ResumeMode) (float64, error) {
		best := math.Inf(1)
		for try := 0; try < 3; try++ {
			work := filepath.Join(dir, fmt.Sprintf("work-%s.ckpt", mode))
			if err := copyCheckpoint(path, work); err != nil {
				return 0, err
			}
			os.Remove(work + ".prev")
			var stop atomic.Bool
			stop.Store(true) // already raised: stop at the first live boundary
			start := time.Now()
			_, err := ResumeWithMode(work, nil, CheckpointSpec{Path: work, Every: every, Interrupt: &stop}, mode)
			el := time.Since(start).Seconds()
			if !errors.Is(err, ErrInterrupted) {
				return 0, fmt.Errorf("runner: ladder resume (%s): want ErrInterrupted, got %v", mode, err)
			}
			if el < best {
				best = el
			}
		}
		return best, nil
	}

	const slots = 20 // checkpoints per run: kill points land on exact slots
	var rows []ResumeLadderRow
	for _, n := range []int{800, 1600, 3200, 6400} {
		// Probe the run length in events to derive the cadence.
		before := TotalEventsProcessed()
		if _, err := Run(mk(n)); err != nil {
			return nil, err
		}
		every := (TotalEventsProcessed()-before)/slots + 1

		for _, pct := range []int{25, 50, 75} {
			killAt := slots * pct / 100
			path := filepath.Join(dir, fmt.Sprintf("l%d-k%d.ckpt", n, pct))
			crashErr := fmt.Errorf("staged crash")
			if _, err := RunCheckpointed(mk(n), CheckpointSpec{
				Path: path, Every: every,
				AfterCheckpoint: func(done int) error {
					if done >= killAt {
						return crashErr
					}
					return nil
				},
			}); !errors.Is(err, crashErr) {
				return nil, fmt.Errorf("runner: ladder staged crash did not fire: %v", err)
			}
			f, _, err := snapshot.LoadFile(path)
			if err != nil {
				return nil, err
			}
			_, cur, err := decodeCheckpoint(f)
			if err != nil {
				return nil, err
			}
			replaySecs, err := resume(path, every, ResumeReplay)
			if err != nil {
				return nil, err
			}
			stateSecs, err := resume(path, every, ResumeState)
			if err != nil {
				return nil, err
			}
			row := ResumeLadderRow{
				Jobs: n, KillPct: pct, CutEvents: cur.Processed,
				ReplaySeconds: replaySecs, StateSeconds: stateSecs,
			}
			if stateSecs > 0 {
				row.Speedup = replaySecs / stateSecs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderResumeLadder formats the resume-scaling ladder.
func RenderResumeLadder(rows []ResumeLadderRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s %12s %12s %12s %9s\n", "jobs", "kill%", "cut events", "replay(s)", "state(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %6d %12d %12.4f %12.4f %8.1fx\n",
			r.Jobs, r.KillPct, r.CutEvents, r.ReplaySeconds, r.StateSeconds, r.Speedup)
	}
	b.WriteString("\nrecovery latency only (interrupt pre-raised): rebuild + restore-to-cut + final checkpoint\n")
	b.WriteString("replay grows with the history replayed; state restore decodes the image and stays flat\n")
	return b.String()
}

// RenderCheckpoint formats the checkpoint study's rows.
func RenderCheckpoint(rows []CheckpointRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %6s %10s %10s\n", "arm", "wall(s)", "events", "ckpts", "snap(B)", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10.3f %10d %6d %10d %10v\n",
			r.Arm, r.WallSeconds, r.Events, r.Checkpoints, r.SnapshotBytes, r.Identical)
	}
	b.WriteString("\nidentical = Output JSON and JSONL event trace byte-equal to the unarmed run\n")
	b.WriteString("kill+resume wall clock = replay to the cut + live tail (crash-recovery price)\n")
	return b.String()
}
