package mapreduce_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/runner"
	"dare/internal/scheduler"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/workload"
)

// heartbeatBlind records every kind but Heartbeat. A recorder that hears
// heartbeats keeps the idle gate shut for the whole run, so the gate
// differential traces everything else.
type heartbeatBlind struct{ *event.Recorder }

func (heartbeatBlind) Kinds() []event.Kind {
	var ks []event.Kind
	for k := event.KindNone + 1; int(k) < event.NumKinds; k++ {
		if k != event.Heartbeat {
			ks = append(ks, k)
		}
	}
	return ks
}

// gateArm is one scenario of the idle-gate differential: a cluster, a
// workload, a scheduler, the faults injected into the tracker, the
// cadence, in processed engine events, of the state images compared, and
// whether some image must find a node blacklisted.
type gateArm struct {
	name       string
	profile    func() *config.Profile
	workload   func() *workload.Workload
	selector   func() mapreduce.TaskSelector
	faults     func(tr *mapreduce.Tracker, span, hb float64)
	every      uint64
	blacklists bool
}

// gateResult is what one run of an arm exposes to the comparison.
type gateResult struct {
	out, trace  []byte
	counts      event.Counts
	images      [][32]byte
	blacklisted int // most nodes blacklisted at once, over the images
}

// gateRun drives arm under an ElephantTrap manager and returns its Output
// as JSON, its heartbeat-blind JSONL trace, the bus tally, and the digest
// of the full state image (engine, name node, tracker, policy, tally) at
// every arm.every processed events, as a checkpointed run would write it.
func gateRun(t *testing.T, arm gateArm) gateResult {
	t.Helper()
	const seed = 5
	p := arm.profile()
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	rec := event.NewRecorder(&trace)
	c.Bus.Subscribe(heartbeatBlind{rec})
	wl := arm.workload()
	sel := arm.selector()
	tr, err := mapreduce.NewTracker(c, wl, sel)
	if err != nil {
		t.Fatal(err)
	}
	hb := p.HeartbeatInterval
	arm.faults(tr, wl.Jobs[len(wl.Jobs)-1].Arrival, hb)
	cfg := runner.PolicyFor(core.ElephantTrapPolicy)
	cfg.AnnounceDelay, cfg.LazyDeleteDelay = hb, hb
	mgr := core.NewManager(cfg, c.NN, stats.NewRNG(seed).Split(0xDA2E), c.Eng.Defer)
	mgr.SetNow(c.Eng.Now)
	mgr.SetTagDefer(func(delay float64, tag core.EventTag, fn func()) { c.Eng.DeferTag(delay, tag, fn) })
	c.Bus.Subscribe(mgr)

	var res gateResult
	enc := snapshot.NewEnc()
	image := func(watermark uint64) {
		enc.Reset()
		if err := c.Eng.WalkPending(snapshot.WalkEnc(enc), watermark, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.NN.WalkState(snapshot.WalkEnc(enc)); err != nil {
			t.Fatal(err)
		}
		if err := tr.WalkState(snapshot.WalkEnc(enc)); err != nil {
			t.Fatal(err)
		}
		if err := mgr.WalkState(snapshot.WalkEnc(enc)); err != nil {
			t.Fatal(err)
		}
		for _, v := range c.Bus.Counts() {
			enc.U64(v)
		}
		res.images = append(res.images, sha256.Sum256(enc.Data()))
		res.blacklisted = max(res.blacklisted, tr.Blacklisted())
	}
	var watermark, next uint64
	drive := func(eng *sim.Engine, until float64) error {
		if next == 0 {
			watermark = eng.Seq()
			next = arm.every
		}
		for eng.RunUntilOutcome(until, next) == sim.RunBudget {
			image(watermark)
			next += arm.every
		}
		return nil
	}
	results, err := tr.RunWith(drive)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	pol := mgr.TotalStats()
	res.counts = c.Bus.Counts()
	res.out, err = json.Marshal(runner.Output{
		Summary:        metrics.Summarize(results, pol),
		Results:        results,
		PolicyStats:    pol,
		FailureEvents:  tr.FailureEvents(),
		RecoveryEvents: tr.RecoveryEvents(),
		RepairsDone:    tr.RepairsDone(),
		Gray:           tr.Gray(),
		Master:         tr.MasterStats(),
		MasterEvents:   tr.MasterEvents(),
		SchedulerName:  sel.Name(),
		PolicyName:     core.ElephantTrapPolicy.String(),
		EventCounts:    res.counts,
		// EventsProcessed pins the engine's event count: the gate skips
		// member sweeps, never cohort events.
		EventsProcessed: c.Eng.Processed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res.trace = trace.Bytes()
	return res
}

// gateCluster is the offer-gate test's cluster (TestOffersAreDemandGated):
// CCT, 12 nodes in racks of 4, a 120-job workload at seed 5, fair. Jobs
// arrive 4 s apart on average, so the cluster idles between them.
func gateCluster(name string, faults func(tr *mapreduce.Tracker, span, hb float64)) gateArm {
	return gateArm{
		name: name,
		profile: func() *config.Profile {
			p := config.CCT()
			p.Slaves = 12
			p.RackSize = 4
			return p
		},
		workload: func() *workload.Workload {
			return workload.Generate(workload.GenConfig{NumJobs: 120, NumFiles: 15, MeanInterarrival: 4, Seed: 5})
		},
		selector: func() mapreduce.TaskSelector { return scheduler.NewFair(3) },
		faults:   faults,
		every:    2000,
	}
}

// TestIdleGateMatchesFullSweep is the full-stack contract of the idle
// heartbeat gate: a run whose idle cohort ticks tally their beats in one
// add must be indistinguishable from one that runs every node's
// heartbeat — byte-identical Output and JSONL trace, equal bus tallies,
// and equal state images at every checkpoint cadence. The arms cover the
// gate's every off-switch: the offer-gate fault mix with blacklisting on
// (a blacklisted node's beat publishes nothing), a report-mode master
// outage (a down master defers beats; a warming one awaits block
// reports), and a 10k-node scale run, where the gate does most of its
// work.
func TestIdleGateMatchesFullSweep(t *testing.T) {
	arms := []gateArm{
		gateCluster("fault-mix", func(tr *mapreduce.Tracker, span, hb float64) {
			tr.SetInvariantChecks(true)
			tr.ScheduleNodeFailure(1, 0.1*span)
			tr.ScheduleNodeRecovery(1, 0.3*span)
			tr.ScheduleRackFailure(2, 0.55*span)
			tr.ScheduleNodeRecovery(8, 0.6*span)
			tr.ScheduleNodeRecovery(9, 0.65*span)
			tr.EnableGrayReads(3*hb, hb/2, 4*hb, stats.NewRNG(5).Split(0x6A47))
			tr.ScheduleNodeDegrade(3, 4, false, 0.2*span)
			tr.ScheduleNodeRestore(3, 0.45*span)
			tr.ScheduleNodeFlap(5, 0.3*span, 0.05*span)
			tr.ScheduleRandomCorruption(0.25 * span)
			tr.SetTaskFailureInjection(0.3, stats.NewRNG(5))
			tr.SetMaxTaskAttempts(2)
			tr.SetBlacklistAfter(2)
			tr.EnableMasterRecovery(16)
			tr.ScheduleMasterOutage(0.4*span, 0.1*span, dfs.RecoverJournal)
		}),
		gateCluster("report-outage", func(tr *mapreduce.Tracker, span, hb float64) {
			tr.SetInvariantChecks(true)
			tr.ScheduleNodeFailure(2, 0.2*span)
			tr.ScheduleNodeRecovery(2, 0.7*span)
			tr.EnableMasterRecovery(16)
			tr.ScheduleMasterOutage(0.4*span, 0.1*span, dfs.RecoverReport)
		}),
		{
			name:     "scale-10k",
			profile:  func() *config.Profile { return runner.ScaleProfile(10000) },
			workload: func() *workload.Workload { return truncate(workload.WL1(1), 12) },
			selector: func() mapreduce.TaskSelector { return scheduler.NewFIFO() },
			faults:   func(*mapreduce.Tracker, float64, float64) {},
			every:    5000,
		},
	}
	arms[0].blacklists = true // the fault mix must exercise the blacklist off-switch
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			skipped := mapreduce.CountIdleBeats(t)
			gated := gateRun(t, arm)
			if *skipped == 0 {
				t.Fatal("the idle gate never fired; the arm compares nothing")
			}
			if arm.blacklists && gated.blacklisted == 0 {
				t.Fatal("no image found a node blacklisted")
			}
			mapreduce.DisableIdleGate(t)
			swept := gateRun(t, arm)
			if !bytes.Equal(gated.out, swept.out) {
				t.Errorf("Output diverges from the full sweep\n gated: %s\n swept: %s", gated.out, swept.out)
			}
			if !bytes.Equal(gated.trace, swept.trace) {
				t.Error("event trace diverges from the full sweep")
			}
			if gated.counts != swept.counts {
				t.Errorf("bus tally %s, full sweep %s", gated.counts, swept.counts)
			}
			if len(gated.images) != len(swept.images) || len(gated.images) < 3 {
				t.Fatalf("%d state images gated, %d swept", len(gated.images), len(swept.images))
			}
			for i := range gated.images {
				if gated.images[i] != swept.images[i] {
					t.Fatalf("state image %d (after %d events) diverges from the full sweep", i, uint64(i+1)*arm.every)
				}
			}
			t.Logf("%d of %d heartbeats tallied by the gate; %d images compared",
				*skipped, gated.counts[event.Heartbeat], len(gated.images))
		})
	}
}

// truncate keeps a workload's first n jobs.
func truncate(wl *workload.Workload, n int) *workload.Workload {
	out := *wl
	out.Jobs = wl.Jobs[:n]
	return &out
}
