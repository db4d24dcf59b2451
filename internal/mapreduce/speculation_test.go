package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/workload"
)

// noisyProfile is an EC2-like profile with heavy task noise, the regime
// speculation exists for.
func noisyProfile() *config.Profile {
	p := config.EC2()
	p.Slaves = 12
	p.TaskNoiseSigma = 0.6
	return p
}

func specRun(t *testing.T, speculative bool, seed uint64) ([]mapreduce.Result, *mapreduce.Tracker) {
	t.Helper()
	p := noisyProfile()
	p.SpeculativeExecution = speculative
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: 80, NumFiles: 15, MeanInterarrival: 0.8, Seed: seed})
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return results, tr
}

func TestSpeculationLaunchesBackups(t *testing.T) {
	_, off := specRun(t, false, 1)
	if off.SpeculativeLaunches() != 0 {
		t.Fatal("speculation ran while disabled")
	}
	_, on := specRun(t, true, 1)
	if on.SpeculativeLaunches() == 0 {
		t.Fatal("no backups launched under heavy noise")
	}
}

func TestSpeculationPreservesTaskAccounting(t *testing.T) {
	results, _ := specRun(t, true, 2)
	for _, r := range results {
		if r.Local+r.Rack+r.Remote != r.NumMaps {
			t.Fatalf("job %d: task accounting broken with speculation: %d+%d+%d != %d",
				r.ID, r.Local, r.Rack, r.Remote, r.NumMaps)
		}
		if r.Turnaround <= 0 {
			t.Fatalf("job %d: bad turnaround %v", r.ID, r.Turnaround)
		}
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	a, ta := specRun(t, true, 3)
	b, tb := specRun(t, true, 3)
	if ta.SpeculativeLaunches() != tb.SpeculativeLaunches() {
		t.Fatal("speculative launch counts differ between identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs between identical runs", i)
		}
	}
}

func TestSpeculationBoundedOverhead(t *testing.T) {
	// Naive Hadoop-style speculation is known to be of mixed value on
	// heterogeneous clusters (Zaharia et al.'s LATE paper observed it can
	// even hurt on EC2): backups issue extra remote reads that contend on
	// NICs, and the duration-variance heuristic fires on tasks that were
	// merely noisy. Our model reproduces that texture, so the assertion is
	// a bound, not an improvement claim: with backups firing, the mean
	// winning map duration stays within 25% of the non-speculative run.
	off, _ := specRun(t, false, 4)
	on, tr := specRun(t, true, 4)
	if tr.SpeculativeLaunches() == 0 {
		t.Skip("no stragglers for this seed")
	}
	var offSum, onSum float64
	var offMaps, onMaps int
	for i := range off {
		offSum += off[i].MapTimeSum
		offMaps += off[i].NumMaps
		onSum += on[i].MapTimeSum
		onMaps += on[i].NumMaps
	}
	offMean := offSum / float64(offMaps)
	onMean := onSum / float64(onMaps)
	if onMean > offMean*1.25 {
		t.Fatalf("speculation blew past the overhead bound: %.2f -> %.2f", offMean, onMean)
	}
}

func TestSpeculationWithFailures(t *testing.T) {
	// Backups and failure injection interact: killing a node mid-run with
	// speculation on must still complete every job exactly once.
	p := noisyProfile()
	p.SpeculativeExecution = true
	c, err := mapreduce.NewCluster(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: 60, NumFiles: 12, MeanInterarrival: 0.8, Seed: 5})
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	tr.ScheduleNodeFailure(2, 10)
	tr.ScheduleNodeFailure(6, 20)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if r.Local+r.Rack+r.Remote != r.NumMaps {
			t.Fatalf("job %d lost or duplicated tasks", r.ID)
		}
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
