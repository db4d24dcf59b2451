package mapreduce_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dare/internal/churn"
	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/runner"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// dispatchArm is one scenario of the dispatch differential: a policy,
// and either blacklisting or the invariant checker.
type dispatchArm struct {
	policy    core.PolicyKind
	blacklist bool
}

// dispatchRun drives the offer-gate cluster (TestOffersAreDemandGated)
// with speculation, stochastic churn, gray failures, flaky tasks and a
// master outage, plus blacklisting or the invariant checker, under a DARE
// manager or a Scarlett controller. With hide, the policy is subscribed
// without its kind filter; the tracker's invariant checker, its one bus
// component, is hidden by HideComponentKinds. It returns the run's Output
// as JSON and its JSONL event trace.
func dispatchRun(t *testing.T, a dispatchArm, hide bool) ([]byte, []byte) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 4
	p.SpeculativeExecution = true
	p.TaskNoiseSigma = 0.6
	const seed = 5
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	rec := event.NewRecorder(&trace)
	c.Bus.Subscribe(rec)
	wl := workload.Generate(workload.GenConfig{NumJobs: 120, NumFiles: 15, LargeEvery: 4, Seed: seed})
	sel := scheduler.NewFair(3)
	tr, err := mapreduce.NewTracker(c, wl, sel)
	if err != nil {
		t.Fatal(err)
	}
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	events, err := churn.Generate(p.Slaves, func(n int) int { return c.Topo.Rack(topology.NodeID(n)) },
		churn.Spec{MTTF: 4 * span, MTTR: span / 10, RackFailProb: 0.2, Horizon: span}, stats.NewRNG(seed).Split(0xC4021))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		switch ev.Kind {
		case churn.NodeFail:
			tr.ScheduleNodeFailure(topology.NodeID(ev.Node), ev.At)
		case churn.NodeRecover:
			tr.ScheduleNodeRecovery(topology.NodeID(ev.Node), ev.At)
		case churn.RackFail:
			tr.ScheduleRackFailure(ev.Rack, ev.At)
		}
	}
	hb := p.HeartbeatInterval
	tr.EnableGrayReads(3*hb, hb/2, 4*hb, stats.NewRNG(seed).Split(0x6A47))
	tr.ScheduleNodeDegrade(3, 4, false, 0.2*span)
	tr.ScheduleNodeRestore(3, 0.45*span)
	tr.ScheduleNodeFlap(5, 0.3*span, 0.05*span)
	tr.ScheduleRandomCorruption(0.25 * span)
	tr.SetTaskFailureInjection(0.1, stats.NewRNG(seed))
	tr.SetMaxTaskAttempts(3)
	if a.blacklist {
		tr.SetBlacklistAfter(2)
	} else {
		tr.SetBlacklistAfter(0)
		tr.SetInvariantChecks(true)
	}
	tr.EnableMasterRecovery(16)
	tr.ScheduleMasterOutage(0.4*span, 0.1*span, dfs.RecoverJournal)

	subscribe := func(s event.Subscriber) {
		if hide {
			s = struct{ event.Subscriber }{s}
		}
		c.Bus.Subscribe(s)
	}
	kind := a.policy
	cfg := runner.PolicyFor(kind)
	cfg.AnnounceDelay, cfg.LazyDeleteDelay = hb, hb
	var mgr *core.Manager
	var scar *core.Scarlett
	if kind == core.ScarlettPolicy {
		scar = core.NewScarlett(cfg, c.NN, c.Eng.Defer)
		scar.SetNow(c.Eng.Now)
		subscribe(scar)
	} else {
		mgr = core.NewManager(cfg, c.NN, stats.NewRNG(seed).Split(0xDA2E), c.Eng.Defer)
		mgr.SetNow(c.Eng.Now)
		subscribe(mgr)
	}

	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	var pol core.PolicyStats
	if mgr != nil {
		pol = mgr.TotalStats()
	} else {
		scar.Stop()
		pol = scar.TotalStats()
	}
	out, err := json.Marshal(runner.Output{
		Summary:             metrics.Summarize(results, pol),
		Results:             results,
		PolicyStats:         pol,
		SpeculativeLaunches: tr.SpeculativeLaunches(),
		FailureEvents:       tr.FailureEvents(),
		RecoveryEvents:      tr.RecoveryEvents(),
		RepairsDone:         tr.RepairsDone(),
		Gray:                tr.Gray(),
		Master:              tr.MasterStats(),
		MasterEvents:        tr.MasterEvents(),
		SchedulerName:       sel.Name(),
		PolicyName:          kind.String(),
		EventsProcessed:     c.Eng.Processed(),
		EventCounts:         c.Bus.Counts(),
	})
	if err != nil {
		t.Fatal(err)
	}

	counts := c.Bus.Counts()
	if pol.ReplicasCreated == 0 || tr.SpeculativeLaunches() == 0 || counts[event.NodeFail] == 0 ||
		counts[event.MasterCrash] == 0 || counts[event.HedgedRead]+counts[event.ReadRetry] == 0 {
		t.Fatalf("%+v: scenario too tame: %d replicas, %d backups, bus tally %s",
			a, pol.ReplicasCreated, tr.SpeculativeLaunches(), counts)
	}
	return out, trace.Bytes()
}

// TestKindDispatchMatchesBroadcast is the full-stack determinism contract
// of per-kind dispatch: with the kind filters of the replication policy
// and of the tracker's invariant checker hidden, so that each hears every
// event and filters it itself as on a broadcast bus, the run must produce
// a byte-identical Output and JSONL trace. The failure handler and the
// speculator are not on the bus: the tracker calls them directly.
func TestKindDispatchMatchesBroadcast(t *testing.T) {
	var arms []dispatchArm
	for _, k := range []core.PolicyKind{core.ElephantTrapPolicy, core.ScarlettPolicy} {
		arms = append(arms, dispatchArm{k, true}, dispatchArm{k, false})
	}
	var outs, traces [2][][]byte
	for _, a := range arms {
		out, trace := dispatchRun(t, a, false)
		outs[0], traces[0] = append(outs[0], out), append(traces[0], trace)
	}
	mapreduce.HideComponentKinds(t)
	for _, a := range arms {
		out, trace := dispatchRun(t, a, true)
		outs[1], traces[1] = append(outs[1], out), append(traces[1], trace)
	}
	for i, a := range arms {
		if !bytes.Equal(outs[0][i], outs[1][i]) {
			t.Errorf("%+v: Output diverges from the broadcast reference\n per kind: %s\nbroadcast: %s",
				a, outs[0][i], outs[1][i])
		}
		if !bytes.Equal(traces[0][i], traces[1][i]) {
			t.Errorf("%+v: event trace diverges from the broadcast reference", a)
		}
	}
}
