package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// gateProbe decorates a TaskSelector and checks every offer the tracker
// makes against the registered jobs: an offer is futile when no
// registered job has work of the offered kind pending.
type gateProbe struct {
	mapreduce.TaskSelector
	jobs                      []*mapreduce.Job
	mapOffers, mapLaunches    int
	reduceOffers, redLaunches int
	futileMaps, futileReduces int
}

func (p *gateProbe) AddJob(j *mapreduce.Job) {
	p.jobs = append(p.jobs, j)
	p.TaskSelector.AddJob(j)
}

func (p *gateProbe) RemoveJob(j *mapreduce.Job) {
	for i, cur := range p.jobs {
		if cur == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			break
		}
	}
	p.TaskSelector.RemoveJob(j)
}

func (p *gateProbe) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	p.mapOffers++
	if !p.anyPending(func(j *mapreduce.Job) int { return j.PendingMaps() }) {
		p.futileMaps++
	}
	j, b, ok := p.TaskSelector.SelectMapTask(node, now)
	if ok {
		p.mapLaunches++
	}
	return j, b, ok
}

func (p *gateProbe) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	p.reduceOffers++
	if !p.anyPending(func(j *mapreduce.Job) int { return j.PendingReduces() }) {
		p.futileReduces++
	}
	j, ok := p.TaskSelector.SelectReduceTask(node, now)
	if ok {
		p.redLaunches++
	}
	return j, ok
}

func (p *gateProbe) anyPending(pending func(*mapreduce.Job) int) bool {
	for _, j := range p.jobs {
		if pending(j) > 0 {
			return true
		}
	}
	return false
}

// TestOffersAreDemandGated runs a fair-scheduled workload through node
// and rack churn, gray failures, flaky tasks that fail whole jobs, and a
// master outage, with blacklisting and the invariant checker on (the
// checker pins the tracker's demand counters to their definitions). The
// tracker must never offer a slot kind that no registered job can take.
func TestOffersAreDemandGated(t *testing.T) {
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 4
	c, err := mapreduce.NewCluster(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: 120, NumFiles: 15, Seed: 5})
	probe := &gateProbe{TaskSelector: scheduler.NewFair(3)}
	tr, err := mapreduce.NewTracker(c, wl, probe)
	if err != nil {
		t.Fatal(err)
	}
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	tr.SetInvariantChecks(true)
	tr.ScheduleNodeFailure(1, 0.1*span)
	tr.ScheduleNodeRecovery(1, 0.3*span)
	tr.ScheduleRackFailure(2, 0.55*span)
	tr.ScheduleNodeRecovery(8, 0.6*span)
	tr.ScheduleNodeRecovery(9, 0.65*span)
	hb := p.HeartbeatInterval
	tr.EnableGrayReads(3*hb, hb/2, 4*hb, stats.NewRNG(5).Split(0x6A47))
	tr.ScheduleNodeDegrade(3, 4, false, 0.2*span)
	tr.ScheduleNodeRestore(3, 0.45*span)
	tr.ScheduleNodeFlap(5, 0.3*span, 0.05*span)
	tr.ScheduleRandomCorruption(0.25 * span)
	tr.SetTaskFailureInjection(0.3, stats.NewRNG(5))
	tr.SetMaxTaskAttempts(2)
	tr.EnableMasterRecovery(16)
	tr.ScheduleMasterOutage(0.4*span, 0.1*span, dfs.RecoverJournal)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	if len(results) != len(wl.Jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(wl.Jobs))
	}
	failed := 0
	for _, r := range results {
		if r.Failed {
			failed++
		}
	}
	if failed == 0 || tr.MasterStats().KilledReduces == 0 {
		t.Fatalf("scenario too tame: %d failed jobs, %d reduces killed by the outage",
			failed, tr.MasterStats().KilledReduces)
	}
	if probe.mapLaunches == 0 || probe.redLaunches == 0 {
		t.Fatalf("no launches: %d map, %d reduce", probe.mapLaunches, probe.redLaunches)
	}
	if probe.futileMaps != 0 || probe.futileReduces != 0 {
		t.Fatalf("futile offers: %d of %d map offers, %d of %d reduce offers",
			probe.futileMaps, probe.mapOffers, probe.futileReduces, probe.reduceOffers)
	}
}
