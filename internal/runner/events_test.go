package runner

import (
	"bytes"
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/workload"
)

// runWithLog executes one run with the event recorder attached and
// returns the output plus the raw JSONL trace.
func runWithLog(t *testing.T, opts Options) (*Output, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts.EventLog = &buf
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

func eventOpts(seed uint64) Options {
	return Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL2(seed), 50),
		Scheduler: "fair",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      seed,
	}
}

// TestEventLogByteIdenticalAcrossRuns is the trace half of the
// determinism contract: the same Options must produce not just the same
// summary but the same JSONL event log, byte for byte.
func TestEventLogByteIdenticalAcrossRuns(t *testing.T) {
	for _, seed := range []uint64{7, 42} {
		a, logA := runWithLog(t, eventOpts(seed))
		b, logB := runWithLog(t, eventOpts(seed))
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Fatalf("seed %d: summaries diverge between identical runs", seed)
		}
		if len(logA) == 0 {
			t.Fatalf("seed %d: empty event log", seed)
		}
		if !bytes.Equal(logA, logB) {
			t.Fatalf("seed %d: event logs differ between identical runs (%d vs %d bytes)",
				seed, len(logA), len(logB))
		}
		if a.EventCounts != b.EventCounts {
			t.Fatalf("seed %d: event counts differ: %s vs %s", seed, a.EventCounts, b.EventCounts)
		}
	}
}

// TestEventLogByteIdenticalAcrossParallelism pins that cross-run
// parallelism cannot leak into a run's trace: the same seed matrix
// executed serially and on 8 workers yields byte-identical logs per run.
func TestEventLogByteIdenticalAcrossParallelism(t *testing.T) {
	seeds := []uint64{3, 7, 11, 42}
	collect := func(par int) [][]byte {
		SetParallelism(par)
		defer SetParallelism(0)
		logs := make([][]byte, len(seeds))
		err := forEachIndex(len(seeds), func(i int) error {
			var buf bytes.Buffer
			opts := eventOpts(seeds[i])
			opts.EventLog = &buf
			if _, err := Run(opts); err != nil {
				return err
			}
			logs[i] = buf.Bytes()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	serial := collect(1)
	parallel := collect(8)
	for i, seed := range seeds {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("seed %d: event log differs between -parallel 1 and -parallel 8", seed)
		}
	}
}

// TestEventLogMatchesResults cross-checks the trace against the run's own
// accounting: decoded events must reproduce the job count, map-task
// locality split, and speculative-launch tally the summary reports.
func TestEventLogMatchesResults(t *testing.T) {
	opts := eventOpts(11)
	out, log := runWithLog(t, opts)
	events, _, err := event.ReadLogSkipped(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var counts event.Counts
	local, maps := 0, 0
	last := -1.0
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Time < last {
			t.Fatalf("event log time went backwards: %g after %g", ev.Time, last)
		}
		last = ev.Time
		if ev.Kind == event.TaskLaunch && ev.Block >= 0 {
			maps++
			if ev.Flag {
				local++
			}
		}
	}
	if counts != out.EventCounts {
		t.Fatalf("decoded counts %s != reported %s", counts, out.EventCounts)
	}
	jobs := len(out.Results)
	if got := counts[event.JobArrive]; got != uint64(jobs) {
		t.Fatalf("job-arrive events %d, want %d", got, jobs)
	}
	if got := counts[event.JobFinish]; got != uint64(jobs) {
		t.Fatalf("job-finish events %d, want %d", got, jobs)
	}
	if got := counts[event.TaskSpeculate]; got != uint64(out.SpeculativeLaunches) {
		t.Fatalf("task-speculate events %d, want %d", got, out.SpeculativeLaunches)
	}
	wantLocal, wantMaps := 0, 0
	for _, r := range out.Results {
		wantLocal += r.Local
		wantMaps += r.NumMaps
	}
	// TaskLaunch Flag marks node-local launches; speculative backups add
	// launches beyond the one-per-map floor, so compare lower bounds.
	if maps < wantMaps {
		t.Fatalf("map task-launch events %d < completed maps %d", maps, wantMaps)
	}
	if local < wantLocal {
		t.Fatalf("local task-launch events %d < local maps %d", local, wantLocal)
	}
}
