package main

import (
	"fmt"

	"dare/internal/chaos"
	"dare/internal/churn"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/runner"
	"dare/internal/scheduler"
	"dare/internal/sim"
	"dare/internal/stats"
	"dare/internal/topology"
)

// tracedRun executes one simulation wired the way runner.Run wires it,
// with the same public constructors in the same order and the same seed
// streams, but with timing wrappers on every seam (see trace.go). The
// wrappers only observe, so the Output must be byte-identical to
// runner.Run(opts); the benchmark checks that on every traced run, which
// turns any drift between this wiring and the runner's into a failure.
//
// Only the options the benchmark's workloads use are supported.
func tracedRun(opts runner.Options, t *tracer) (*runner.Output, error) {
	if len(opts.Failures)+len(opts.Recoveries)+len(opts.RackFailures) > 0 ||
		opts.DisableRepair || opts.MaxTaskAttempts != 0 || opts.BlacklistAfter != 0 ||
		opts.TaskFailureProb > 0 || opts.CheckInvariants {
		return nil, fmt.Errorf("traced run: option outside the benchmark's workloads")
	}
	base, ok := scheduler.FromName(opts.Scheduler, opts.FairSkips)
	if !ok {
		return nil, fmt.Errorf("traced run: unknown scheduler %q", opts.Scheduler)
	}
	sel := timedSelector{TaskSelector: base, t: t}

	t.begin(layerMRWire)
	cluster, err := mapreduce.NewCluster(opts.Profile, opts.Seed)
	if err != nil {
		t.end(layerMRWire)
		return nil, err
	}
	probes := &busProbes{t: t}
	cluster.Bus.Subscribe(openProbe{probes})
	var rec *event.Recorder
	if opts.EventLog != nil {
		rec = event.NewRecorder(opts.EventLog)
		cluster.Bus.Subscribe(timedSub{inner: rec, t: t, l: layerRecord})
	}
	counter := &event.Counter{}
	cluster.Bus.Subscribe(counter)
	tracker, err := mapreduce.NewTracker(cluster, opts.Workload, sel)
	cluster.Bus.Subscribe(closeProbe{probes})
	probes.armed = true
	t.end(layerMRWire)
	if err != nil {
		return nil, err
	}

	if err := scheduleFaults(tracker, cluster, opts); err != nil {
		return nil, err
	}
	pol, polName, err := policyConfig(tracker, cluster, opts)
	if err != nil {
		return nil, err
	}

	deferFn := func(delay float64, fn func()) { cluster.Eng.Defer(delay, t.wrap(layerDeferred, fn)) }
	tagDefer := func(delay float64, tag core.EventTag, fn func()) {
		cluster.Eng.DeferTag(delay, tag, t.wrap(layerDeferred, fn))
	}
	var mgr *core.Manager
	var scar *core.Scarlett
	t.begin(layerCoreWire)
	switch pol.Kind {
	case core.NonePolicy:
	case core.ScarlettPolicy:
		scar = core.NewScarlett(pol, cluster.NN, deferFn)
		scar.SetNow(cluster.Eng.Now)
		scar.SetTagDefer(tagDefer)
		cluster.Bus.Subscribe(timedSub{inner: scar, t: t, l: layerHandle})
	default:
		pcfg := pol
		if pcfg.AnnounceDelay == 0 {
			pcfg.AnnounceDelay = opts.Profile.HeartbeatInterval
		}
		if pcfg.LazyDeleteDelay == 0 {
			pcfg.LazyDeleteDelay = opts.Profile.HeartbeatInterval
		}
		mgr = core.NewManager(pcfg, cluster.NN, stats.NewRNG(opts.Seed).Split(0xDA2E), deferFn)
		mgr.SetNow(cluster.Eng.Now)
		mgr.SetTagDefer(tagDefer)
		cluster.Bus.Subscribe(timedSub{inner: mgr, t: t, l: layerHandle})
	}
	t.end(layerCoreWire)

	blockPop := opts.Workload.BlockAccessCounts()
	t.begin(layerCheck)
	cvBefore := metrics.PlacementCV(cluster.NN, tracker.Files(), blockPop)
	t.end(layerCheck)

	results, err := tracker.RunWith(func(eng *sim.Engine, until float64) error {
		t.begin(layerSim)
		eng.RunUntil(until)
		t.end(layerSim)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if rec != nil {
		t.begin(layerRecord)
		err := rec.Flush()
		t.end(layerRecord)
		if err != nil {
			return nil, fmt.Errorf("traced run: writing event log: %w", err)
		}
	}
	t.begin(layerCheck)
	cvAfter := metrics.PlacementCV(cluster.NN, tracker.Files(), blockPop)
	err = cluster.NN.CheckInvariants()
	t.end(layerCheck)
	if err != nil {
		return nil, fmt.Errorf("traced run: post-run DFS state corrupt: %w", err)
	}

	var polStats core.PolicyStats
	var extraNet int64
	name := core.NonePolicy.String()
	if mgr != nil {
		polStats = mgr.TotalStats()
		name = pol.Kind.String()
		if errs := mgr.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("traced run: DARE manager errors (%d), first: %w", len(errs), errs[0])
		}
	}
	if scar != nil {
		scar.Stop()
		polStats = scar.TotalStats()
		extraNet = scar.ExtraNetworkBytes()
		name = pol.Kind.String()
		if errs := scar.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("traced run: scarlett errors (%d), first: %w", len(errs), errs[0])
		}
	}
	if polName != "" {
		name = polName
	}
	if t.err != nil {
		return nil, t.err
	}
	return &runner.Output{
		Summary:             metrics.Summarize(results, polStats),
		Results:             results,
		CVBefore:            cvBefore,
		CVAfter:             cvAfter,
		PolicyStats:         polStats,
		ExtraNetworkBytes:   extraNet,
		SpeculativeLaunches: tracker.SpeculativeLaunches(),
		FailureEvents:       tracker.FailureEvents(),
		RecoveryEvents:      tracker.RecoveryEvents(),
		RepairsDone:         tracker.RepairsDone(),
		Gray:                tracker.Gray(),
		Master:              tracker.MasterStats(),
		MasterEvents:        tracker.MasterEvents(),
		SchedulerName:       sel.Name(),
		PolicyName:          name,
		EventsProcessed:     cluster.Eng.Processed(),
		EventCounts:         counter.Counts(),
	}, nil
}

// scheduleFaults registers the churn schedule, master outages and chaos
// scenario of opts with the tracker, drawing from the runner's seed
// streams (churn 0xC4021, chaos 0xCA05, gray reads 0x6A47).
func scheduleFaults(tracker *mapreduce.Tracker, cluster *mapreduce.Cluster, opts runner.Options) error {
	span := 0.0
	if n := len(opts.Workload.Jobs); n > 0 {
		span = opts.Workload.Jobs[n-1].Arrival
	}
	if c := opts.Churn; c != nil {
		spec := churn.Spec{MTTF: c.MTTF, MTTR: c.MTTR, RackFailProb: c.RackFailProb, Horizon: c.Horizon}
		if spec.Horizon <= 0 {
			spec.Horizon = span
		}
		topo := cluster.Topo
		events, err := churn.Generate(opts.Profile.Slaves,
			func(n int) int { return topo.Rack(topology.NodeID(n)) },
			spec, stats.NewRNG(opts.Seed).Split(0xC4021))
		if err != nil {
			return err
		}
		for _, ev := range events {
			switch ev.Kind {
			case churn.NodeFail:
				tracker.ScheduleNodeFailure(topology.NodeID(ev.Node), ev.At)
			case churn.NodeRecover:
				tracker.ScheduleNodeRecovery(topology.NodeID(ev.Node), ev.At)
			case churn.RackFail:
				tracker.ScheduleRackFailure(ev.Rack, ev.At)
			}
		}
	}
	if len(opts.MasterOutages) > 0 || (opts.Chaos != nil && opts.Chaos.MasterWeight > 0) {
		tracker.EnableMasterRecovery(opts.MasterCheckpointEvery)
	}
	for _, mo := range opts.MasterOutages {
		mode, err := dfs.RecoveryModeFromString(mo.Mode)
		if err != nil {
			return err
		}
		tracker.ScheduleMasterOutage(mo.At, mo.Down, mode)
	}
	if opts.Chaos == nil {
		return nil
	}
	cs, err := resolveChaos(*opts.Chaos, span)
	if err != nil {
		return err
	}
	masterMode, err := dfs.RecoveryModeFromString(opts.Chaos.MasterRecovery)
	if err != nil {
		return err
	}
	actions, err := chaos.Generate(opts.Profile.Slaves, cs, stats.NewRNG(opts.Seed).Split(0xCA05))
	if err != nil {
		return err
	}
	hb := opts.Profile.HeartbeatInterval
	hedge := opts.Chaos.HedgeTimeout
	if hedge == 0 {
		hedge = 3 * hb
	}
	tracker.EnableGrayReads(hedge, hb/2, 4*hb, stats.NewRNG(opts.Seed).Split(0x6A47))
	for _, a := range actions {
		switch a.Kind {
		case chaos.Crash:
			tracker.ScheduleNodeFailure(topology.NodeID(a.Node), a.At)
		case chaos.Recover:
			tracker.ScheduleNodeRecovery(topology.NodeID(a.Node), a.At)
		case chaos.Slow:
			tracker.ScheduleNodeDegrade(topology.NodeID(a.Node), a.Factor, a.Disk, a.At)
		case chaos.Restore:
			tracker.ScheduleNodeRestore(topology.NodeID(a.Node), a.At)
		case chaos.Corrupt:
			tracker.ScheduleRandomCorruption(a.At)
		case chaos.Flap:
			tracker.ScheduleNodeFlap(topology.NodeID(a.Node), a.At, a.Down)
		case chaos.MasterCrash:
			tracker.ScheduleMasterOutage(a.At, a.Down, masterMode)
		}
	}
	return nil
}

// resolveChaos turns a fully specified runner.ChaosSpec into the
// generator's spec. The runner fills zero fields from DefaultChaosSpec;
// the benchmark only passes specs built from DefaultChaosSpec, so it
// rejects zero fields instead of repeating those defaults, except
// MasterDown, which the runner derives from the span.
func resolveChaos(s runner.ChaosSpec, span float64) (chaos.Spec, error) {
	if s.Events <= 0 || s.Horizon <= 0 || s.CrashWeight <= 0 || s.SlowWeight <= 0 ||
		s.CorruptWeight <= 0 || s.FlapWeight <= 0 || s.MTTR <= 0 || s.SlowMean <= 0 ||
		s.SlowFactorMax <= 0 || s.FlapDown <= 0 || s.MasterWeight < 0 {
		return chaos.Spec{}, fmt.Errorf("traced run: chaos spec must be fully specified")
	}
	if s.MasterWeight > 0 && s.MasterDown <= 0 {
		s.MasterDown = span / 16
	}
	return chaos.Spec{
		Events:        s.Events,
		Horizon:       s.Horizon,
		CrashWeight:   s.CrashWeight,
		SlowWeight:    s.SlowWeight,
		CorruptWeight: s.CorruptWeight,
		FlapWeight:    s.FlapWeight,
		MTTR:          s.MTTR,
		SlowMean:      s.SlowMean,
		SlowFactorMax: s.SlowFactorMax,
		FlapDown:      s.FlapDown,
		MasterWeight:  s.MasterWeight,
		MasterDown:    s.MasterDown,
	}, nil
}

// policyConfig builds the replication config of opts and installs a
// config-file arm's scheduler-side rule overrides, each compiled from its
// own substream of the runner's policy seed branch (0x9071C7). polName is
// the arm's label, non-empty only for a config-file arm.
func policyConfig(tracker *mapreduce.Tracker, cluster *mapreduce.Cluster, opts runner.Options) (core.Config, string, error) {
	set := opts.PolicySet
	if set == nil {
		return opts.Policy, "", nil
	}
	kind, err := core.ParsePolicyKind(set.Kind)
	if err != nil {
		return core.Config{}, "", err
	}
	pol := core.Config{
		Kind:               kind,
		P:                  set.P,
		Threshold:          set.Threshold,
		BudgetFraction:     set.Budget,
		AnnounceDelay:      set.AnnounceDelay,
		LazyDeleteDelay:    set.LazyDeleteDelay,
		Epoch:              set.Epoch,
		AccessesPerReplica: set.AccessesPerReplica,
		MaxExtraReplicas:   set.MaxExtraReplicas,
		Rules:              set.Replication,
	}
	if set.Repair != nil {
		cluster.NN.SetRepairTerms(set.Repair)
	}
	base := stats.NewRNG(opts.Seed).Split(0x9071C7)
	if set.Speculation != nil {
		rule, err := set.Speculation.CompileWith(base.Split(1))
		if err != nil {
			return core.Config{}, "", fmt.Errorf("traced run: speculation rule: %w", err)
		}
		tracker.SetSpeculationRule(rule)
	}
	if set.Blacklist != nil {
		tracker.SetBlacklistRuleSpec(set.Blacklist, base.Split(2))
	}
	if set.FailJob != nil {
		rule, err := set.FailJob.CompileWith(base.Split(3))
		if err != nil {
			return core.Config{}, "", fmt.Errorf("traced run: failJob rule: %w", err)
		}
		tracker.SetFailJobRule(rule)
	}
	return pol, set.Name, nil
}
