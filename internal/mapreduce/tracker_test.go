package mapreduce_test

import (
	"errors"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

func smallWorkload(seed uint64, jobs int) *workload.Workload {
	return workload.Generate(workload.GenConfig{
		Name:             "test",
		NumJobs:          jobs,
		NumFiles:         20,
		MeanInterarrival: 3,
		Seed:             seed,
	})
}

func runOnce(t *testing.T, sel mapreduce.TaskSelector, seed uint64, jobs int) ([]mapreduce.Result, *mapreduce.Cluster) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 8
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload(seed, jobs)
	tr, err := mapreduce.NewTracker(c, wl, sel)
	if err != nil {
		t.Fatal(err)
	}
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return results, c
}

func TestTrackerCompletesAllJobsFIFO(t *testing.T) {
	results, c := runOnce(t, scheduler.NewFIFO(), 1, 40)
	if len(results) != 40 {
		t.Fatalf("results %d", len(results))
	}
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("results not sorted by ID at %d", i)
		}
		if r.Finish < r.Arrival {
			t.Fatalf("job %d finished before arrival", r.ID)
		}
		if r.Local+r.Rack+r.Remote != r.NumMaps {
			t.Fatalf("job %d task accounting off: %d+%d+%d != %d", r.ID, r.Local, r.Rack, r.Remote, r.NumMaps)
		}
		if l := r.Locality(); l < 0 || l > 1 {
			t.Fatalf("job %d locality %v", r.ID, l)
		}
		if r.Turnaround <= 0 || r.Dedicated <= 0 {
			t.Fatalf("job %d timings %v/%v", r.ID, r.Turnaround, r.Dedicated)
		}
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerCompletesAllJobsFair(t *testing.T) {
	results, c := runOnce(t, scheduler.NewFair(5), 2, 40)
	if len(results) != 40 {
		t.Fatalf("results %d", len(results))
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerDeterministic(t *testing.T) {
	a, _ := runOnce(t, scheduler.NewFIFO(), 3, 30)
	b, _ := runOnce(t, scheduler.NewFIFO(), 3, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestTrackerWithDAREHookReplicates(t *testing.T) {
	p := config.CCT()
	p.Slaves = 8
	c, err := mapreduce.NewCluster(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := smallWorkload(4, 60)
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	// The manager derives its budget from the bytes NewTracker just
	// loaded, so it is built second and subscribed to the cluster bus.
	mgr := core.NewManager(core.DefaultConfig(), c.NN, stats.NewRNG(5), c.Eng.Defer)
	c.Bus.Subscribe(mgr)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	if mgr.TotalStats().ReplicasCreated == 0 {
		t.Fatal("DARE created no replicas under a skewed workload")
	}
	if len(mgr.Errors()) != 0 {
		t.Fatalf("manager errors: %v", mgr.Errors())
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRejectsInvalidWorkload(t *testing.T) {
	p := config.CCT()
	p.Slaves = 4
	c, _ := mapreduce.NewCluster(p, 6)
	wl := smallWorkload(6, 5)
	wl.Jobs[0].NumMaps = 10000 // exceeds file
	if _, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO()); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestTrackerSlowdownAtLeastNearOne(t *testing.T) {
	// Slowdown is turnaround over ideal dedicated time; it can dip a bit
	// below 1 because the ideal includes conservative overheads, but it
	// must never be dramatically below.
	results, _ := runOnce(t, scheduler.NewFIFO(), 7, 30)
	for _, r := range results {
		if s := r.Slowdown(); s < 0.3 {
			t.Fatalf("job %d slowdown %v is implausible", r.ID, s)
		}
	}
}

func TestTrackerMapTimeSumPositive(t *testing.T) {
	results, _ := runOnce(t, scheduler.NewFair(5), 8, 20)
	for _, r := range results {
		if r.MapTimeSum <= 0 {
			t.Fatalf("job %d map time sum %v", r.ID, r.MapTimeSum)
		}
	}
}

// TestRunWithEveryNodeDeadIsErrIncomplete: a batch run whose cluster loses
// every node cannot finish its jobs; it must end in the typed
// ErrIncomplete, whose message still names the job counts.
func TestRunWithEveryNodeDeadIsErrIncomplete(t *testing.T) {
	p := config.CCT()
	p.Slaves = 3
	c, err := mapreduce.NewCluster(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := mapreduce.NewTracker(c, smallWorkload(1, 20), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < p.Slaves; n++ {
		tr.ScheduleNodeFailure(topology.NodeID(n), 0.5)
	}
	_, err = tr.Run()
	if !errors.Is(err, mapreduce.ErrIncomplete) {
		t.Fatalf("run with every node dead returned %v, want ErrIncomplete", err)
	}
	if !strings.Contains(err.Error(), "only 0/20 jobs completed by horizon") {
		t.Fatalf("error %q lost its job counts", err)
	}
}
