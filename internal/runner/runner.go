// Package runner wires the full stack together — cluster, DFS, workload,
// scheduler, DARE manager — and holds the experiment registry: one Table
// for every table and figure of the paper's evaluation (§V) and each
// extension study.
package runner

import (
	"fmt"
	"io"
	"sync"

	"dare/internal/churn"
	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// Options configures one simulation run. Its JSON form is a checkpoint's
// RunSpec (spec.go): a PolicySet is written as its declarative spec, and
// the event log is left out.
type Options struct {
	// Profile selects the testbed (config.CCT(), config.EC2(), ...).
	Profile *config.Profile `json:"profile"`
	// Workload is the job trace to replay.
	Workload *workload.Workload `json:"workload"`
	// Scheduler is "fifo" or "fair".
	Scheduler string `json:"scheduler"`
	// FairSkips is the delay-scheduling patience (skipped scheduling
	// opportunities) for the fair scheduler; <= 0 uses the default.
	FairSkips int `json:"fairSkips,omitempty"`
	// Policy configures DARE; Kind == core.NonePolicy runs vanilla.
	Policy core.Config `json:"policy"`
	// PolicySet, when non-nil, takes precedence over Policy: the run uses
	// the config-file arm's kind, scalars, and rule overrides
	// (replication admit/victim/aged, repair ranking, speculation,
	// blacklist, job-fail). Built-in arms (config.BuiltinPolicy) reproduce
	// the equivalent -policy run byte for byte.
	PolicySet *config.PolicySet `json:"policySpec,omitempty"`
	// Seed drives every random stream of the run.
	Seed uint64 `json:"seed"`
	// Failures schedules node kills during the run (failure injection).
	Failures []NodeFailure `json:"failures,omitempty"`
	// Recoveries schedules node rejoins (HDFS-style empty re-registration).
	Recoveries []NodeRecovery `json:"recoveries,omitempty"`
	// RackFailures schedules whole-rack (switch) failures.
	RackFailures []RackFailure `json:"rackFailures,omitempty"`
	// Churn, when non-nil, generates a seeded stochastic failure/recovery
	// schedule (exponential up/down times) on top of any explicit events
	// above. Its horizon defaults to the workload's arrival span.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Chaos, when non-nil, generates a seeded gray-failure scenario (mixed
	// crashes, slow/disk-degraded nodes, silent corruption, false-dead
	// flaps) and switches task launches to the integrity-aware read path
	// (checksum verification, retry with backoff, hedged slow reads). Its
	// horizon defaults to the workload's arrival span.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// MasterOutages schedules control-plane crash/recovery pairs; a
	// non-empty list arms the failover machinery (metadata journaling,
	// block-report recovery).
	MasterOutages []MasterOutage `json:"masterOutages,omitempty"`
	// MasterCheckpointEvery is the metadata-journal checkpoint cadence in
	// records (<= 0 checkpoints only at recovery boundaries).
	MasterCheckpointEvery int `json:"masterCheckpointEvery,omitempty"`
	// DisableRepair turns off the post-failure HDFS-style re-replication.
	DisableRepair bool `json:"disableRepair,omitempty"`
	// MaxTaskAttempts caps failed attempts per map input before the job
	// fails; 0 keeps the tracker default (4), negative retries forever.
	MaxTaskAttempts int `json:"maxTaskAttempts,omitempty"`
	// BlacklistAfter is the per-node failed-attempt threshold for
	// blacklisting; 0 keeps the tracker default (3), negative disables.
	BlacklistAfter int `json:"blacklistAfter,omitempty"`
	// TaskFailureProb makes each map attempt fail with this probability
	// (flaky disks/JVMs), drawn from a dedicated seed stream.
	TaskFailureProb float64 `json:"taskFailureProb,omitempty"`
	// CheckInvariants runs the full metadata invariant checker after every
	// injected failure/recovery event (debugging; the first violation
	// aborts the run).
	CheckInvariants bool `json:"checkInvariants,omitempty"`
	// EventLog, when non-nil, receives the run's full cluster event trace
	// as JSONL, one object per line in publish order (see event.Recorder
	// for the wire format). Same Options (including Seed) produce a
	// byte-identical trace.
	EventLog io.Writer `json:"-"`
}

// NodeFailure kills one node at a simulated time.
type NodeFailure struct {
	Node int
	At   float64
}

// NodeRecovery rejoins one failed node at a simulated time.
type NodeRecovery struct {
	Node int
	At   float64
}

// RackFailure kills every live node of one rack at a simulated time.
type RackFailure struct {
	Rack int
	At   float64
}

// MasterOutage takes the control plane down at At for Down seconds of
// simulated time. Mode selects how the recovered name node rebuilds its
// registry: "journal" (checkpoint + journal replay; the default) or
// "report" (cold start, progressively warmed by per-node block reports).
type MasterOutage struct {
	At, Down float64
	Mode     string
}

// ChurnSpec configures the stochastic churn generator (internal/churn):
// per-node exponential up-times with mean MTTF, exponential down-times
// with mean MTTR, and a RackFailProb chance that a failure takes a whole
// rack. Horizon <= 0 uses the workload's arrival span.
type ChurnSpec = churn.Spec

// Output is the result of one run.
type Output struct {
	Summary metrics.RunSummary
	Results []mapreduce.Result
	// CVBefore and CVAfter are Fig. 11's placement-uniformity metric
	// computed over the node popularity indices before the first job and
	// after the last.
	CVBefore, CVAfter float64
	// PolicyStats aggregates the DARE per-node counters.
	PolicyStats core.PolicyStats
	// ExtraNetworkBytes is the proactive replication traffic (Scarlett
	// only; DARE's captures are free).
	ExtraNetworkBytes int64
	// SpeculativeLaunches counts backup task attempts (zero unless the
	// profile enables speculative execution).
	SpeculativeLaunches int
	// FailureEvents records injected node failures; RecoveryEvents records
	// node rejoins; RepairsDone counts the block re-replications that
	// healed them.
	FailureEvents  []mapreduce.FailureEvent
	RecoveryEvents []mapreduce.RecoveryEvent
	RepairsDone    int
	// Gray tallies the gray-failure machinery's activity (degradations,
	// corruption detections, read retries, hedged reads, flap
	// reconciliation); zero unless Options.Chaos or explicit gray
	// injection was used.
	Gray mapreduce.GrayStats
	// Master tallies control-plane outages (crash counts, downtime,
	// deferred heartbeats/reads, journal activity); zero unless
	// MasterOutages or a chaos master weight was set. MasterEvents samples
	// the master's access-weighted availability timeline at each crash,
	// recovery, and block report.
	Master       mapreduce.MasterStats
	MasterEvents []mapreduce.MasterEvent
	// SchedulerName and PolicyName echo what ran.
	SchedulerName, PolicyName string
	// EventsProcessed is the number of simulation events this run executed
	// (throughput accounting for perf tracking).
	EventsProcessed uint64
	// EventCounts tallies the cluster bus events this run published, per
	// kind (replica churn, task lifecycle, node lifecycle, heartbeats).
	EventCounts event.Counts
}

// busCountsMu guards busCounts; runs may finish concurrently under the
// sweep engine's worker pool.
var busCountsMu sync.Mutex

// busCounts accumulates per-kind cluster bus events across every Run in
// the process (dare-bench -events reporting).
var busCounts event.Counts

// TotalBusEvents reports the cumulative per-kind cluster bus event counts
// across all completed runs since process start.
func TotalBusEvents() event.Counts {
	busCountsMu.Lock()
	defer busCountsMu.Unlock()
	return busCounts
}

// Run executes one full simulation and returns its metrics. The run is a
// pure function of Options (including Seed).
func Run(opts Options) (*Output, error) {
	rs, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	return rs.run()
}

// runState is one fully wired simulation, paused before the clock starts.
// Run drives it to completion in a single call; the durable and streaming
// drivers (durable.go, stream.go) advance it in checkpointed slices via
// Tracker.RunWith. Construction is deterministic: two runStates built from
// equal Options are in identical states, which is what lets a resumed run
// rebuild the world by replaying from genesis.
type runState struct {
	opts    Options
	sel     mapreduce.TaskSelector
	cluster *mapreduce.Cluster
	tracker *mapreduce.Tracker
	rec     *event.Recorder
	mgr     *core.Manager
	scar    *core.Scarlett
	pol     core.Config
	polName string // non-empty only for a -policy-file arm's custom label

	blockPop [][]int
	cvBefore float64
}

// newRunState wires the full stack from opts without processing any
// events.
func newRunState(opts Options) (*runState, error) {
	if opts.Profile == nil {
		return nil, fmt.Errorf("runner: Profile is required")
	}
	if opts.Workload == nil {
		return nil, fmt.Errorf("runner: Workload is required")
	}
	sel, ok := scheduler.FromName(opts.Scheduler, opts.FairSkips)
	if !ok {
		return nil, fmt.Errorf("runner: unknown scheduler %q", opts.Scheduler)
	}
	cluster, err := mapreduce.NewCluster(opts.Profile, opts.Seed)
	if err != nil {
		return nil, err
	}
	// A -policy-file arm overrides the flag-built Policy; its
	// scheduler-side rule overrides are installed below. A bad policy
	// fails here, before the recorder attaches and logs a byte.
	pol := opts.Policy
	if set := opts.PolicySet; set != nil {
		if pol, err = core.ConfigFromSpec(set.PolicySpec); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
	}
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	// The recorder rides first, before any engine-active subscriber, so
	// the trace sees every event — including the initial file placements
	// NewTracker triggers below. The bus tallies kinds itself.
	var rec *event.Recorder
	if opts.EventLog != nil {
		rec = event.NewRecorder(opts.EventLog)
		cluster.Bus.Subscribe(rec)
	}
	tracker, err := mapreduce.NewTracker(cluster, opts.Workload, sel)
	if err != nil {
		return nil, err
	}
	for _, f := range opts.Failures {
		tracker.ScheduleNodeFailure(topology.NodeID(f.Node), f.At)
	}
	for _, r := range opts.Recoveries {
		tracker.ScheduleNodeRecovery(topology.NodeID(r.Node), r.At)
	}
	for _, rf := range opts.RackFailures {
		tracker.ScheduleRackFailure(rf.Rack, rf.At)
	}
	if opts.Churn != nil {
		spec := *opts.Churn
		if spec.Horizon <= 0 {
			spec.Horizon = span(opts.Workload)
		}
		topo := cluster.Topo
		events, err := churn.Generate(opts.Profile.Slaves,
			func(n int) int { return topo.Rack(topology.NodeID(n)) },
			spec, stats.NewRNG(opts.Seed).Split(0xC4021))
		if err != nil {
			return nil, err
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
			return nil, err
		}
		tracker.ScheduleMasterOutage(mo.At, mo.Down, mode)
	}
	if opts.Chaos != nil {
		if err := wireChaos(tracker, opts); err != nil {
			return nil, err
		}
	}
	if opts.DisableRepair {
		tracker.DisableRepair()
	}
	if opts.MaxTaskAttempts != 0 {
		tracker.SetMaxTaskAttempts(opts.MaxTaskAttempts)
	}
	if opts.BlacklistAfter != 0 {
		tracker.SetBlacklistAfter(opts.BlacklistAfter)
	}
	if opts.TaskFailureProb > 0 {
		tracker.SetTaskFailureInjection(opts.TaskFailureProb, stats.NewRNG(opts.Seed).Split(0xF1A2))
	}
	if opts.CheckInvariants {
		tracker.SetInvariantChecks(true)
	}

	// A -policy-file arm installs its scheduler-side rule overrides. Each
	// override family compiles from its own substream of one dedicated
	// seed branch, so adding a stateful rule to one family never shifts
	// another family's draws.
	polNameOverride := ""
	if set := opts.PolicySet; set != nil {
		polNameOverride = set.Name
		if set.Repair != nil {
			cluster.NN.SetRepairTerms(set.Repair)
		}
		base := stats.NewRNG(opts.Seed).Split(0x9071C7)
		if set.Speculation != nil {
			rule, err := set.Speculation.CompileWith(base.Split(1))
			if err != nil {
				return nil, fmt.Errorf("runner: speculation rule: %w", err)
			}
			tracker.SetSpeculationRule(rule)
		}
		if set.Blacklist != nil {
			tracker.SetBlacklistRuleSpec(set.Blacklist, base.Split(2))
		}
		if set.FailJob != nil {
			rule, err := set.FailJob.CompileWith(base.Split(3))
			if err != nil {
				return nil, fmt.Errorf("runner: failJob rule: %w", err)
			}
			tracker.SetFailJobRule(rule)
		}
	}

	var mgr *core.Manager
	var scar *core.Scarlett
	switch pol.Kind {
	case core.NonePolicy:
		// vanilla: no replication policy on the bus
	case core.ScarlettPolicy:
		scar = core.NewScarlett(pol, cluster.NN, cluster.Eng.Defer)
		scar.SetNow(cluster.Eng.Now)
		scar.SetTagDefer(func(delay float64, tag core.EventTag, fn func()) {
			cluster.Eng.DeferTag(delay, tag, fn)
		})
		cluster.Bus.Subscribe(scar)
	default:
		pcfg := pol
		if pcfg.AnnounceDelay == 0 {
			pcfg.AnnounceDelay = opts.Profile.HeartbeatInterval
		}
		if pcfg.LazyDeleteDelay == 0 {
			pcfg.LazyDeleteDelay = opts.Profile.HeartbeatInterval
		}
		mgr = core.NewManager(pcfg, cluster.NN, stats.NewRNG(opts.Seed).Split(0xDA2E), cluster.Eng.Defer)
		mgr.SetNow(cluster.Eng.Now)
		mgr.SetTagDefer(func(delay float64, tag core.EventTag, fn func()) {
			cluster.Eng.DeferTag(delay, tag, fn)
		})
		cluster.Bus.Subscribe(mgr)
	}

	blockPop := opts.Workload.BlockAccessCounts()
	cvBefore := metrics.PlacementCV(cluster.NN, tracker.Files(), blockPop)

	return &runState{
		opts:     opts,
		sel:      sel,
		cluster:  cluster,
		tracker:  tracker,
		rec:      rec,
		mgr:      mgr,
		scar:     scar,
		pol:      pol,
		polName:  polNameOverride,
		blockPop: blockPop,
		cvBefore: cvBefore,
	}, nil
}

// run drives rs to completion in one call and finishes it. A study that
// needs the final world (the name node, the file set) keeps rs and reads
// it after run returns.
func (rs *runState) run() (*Output, error) {
	results, err := rs.tracker.Run()
	if err != nil {
		return nil, err
	}
	return rs.finish(results)
}

// finish closes out a driven run: global tallies, invariant checks, and
// the Output assembly.
func (rs *runState) finish(results []mapreduce.Result) (*Output, error) {
	cluster, tracker, sel := rs.cluster, rs.tracker, rs.sel
	evCounts := cluster.Bus.Counts()
	busCountsMu.Lock()
	busCounts.Add(evCounts)
	busCountsMu.Unlock()
	if rs.rec != nil {
		if err := rs.rec.Flush(); err != nil {
			return nil, fmt.Errorf("runner: writing event log: %w", err)
		}
	}
	cvAfter := metrics.PlacementCV(cluster.NN, tracker.Files(), rs.blockPop)
	if err := cluster.NN.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("runner: post-run DFS state corrupt: %w", err)
	}

	var polStats core.PolicyStats
	var extraNet int64
	polName := core.NonePolicy.String()
	if rs.mgr != nil {
		polStats = rs.mgr.TotalStats()
		polName = rs.pol.Kind.String()
		if errs := rs.mgr.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("runner: DARE manager errors (%d), first: %w", len(errs), errs[0])
		}
	}
	if rs.scar != nil {
		rs.scar.Stop()
		polStats = rs.scar.TotalStats()
		extraNet = rs.scar.ExtraNetworkBytes()
		polName = rs.pol.Kind.String()
		if errs := rs.scar.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("runner: scarlett errors (%d), first: %w", len(errs), errs[0])
		}
	}
	if rs.polName != "" {
		// Built-in arms are named after their kind, so this only changes
		// the label for genuinely custom arms.
		polName = rs.polName
	}
	return &Output{
		Summary:             metrics.Summarize(results, polStats),
		Results:             results,
		CVBefore:            rs.cvBefore,
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
		PolicyName:          polName,
		EventsProcessed:     cluster.Eng.Processed(),
		EventCounts:         evCounts,
	}, nil
}

// PolicyFor returns a kind's built-in row (config.BuiltinPolicySpec) as a
// core.Config, but core.DefaultConfig with its 1.0 s delays for
// ElephantTrap. An unknown kind gets the zero Config, vanilla.
func PolicyFor(kind core.PolicyKind) core.Config {
	if kind == core.ElephantTrapPolicy {
		return core.DefaultConfig()
	}
	spec, _ := config.BuiltinPolicySpec(kind.String())
	cfg, _ := core.ConfigFromSpec(spec)
	return cfg
}

// FlagPolicy resolves dare-sim's -policy, -p, -threshold and -budget
// flags: the kind's built-in row with the three scalars applied, as they
// are to every kind. The caller range-checks it (core.Config.Validate).
func FlagPolicy(name string, p float64, threshold int64, budget float64) (core.Config, error) {
	spec, err := config.BuiltinPolicySpec(name)
	if err != nil {
		return core.Config{}, err
	}
	spec.P, spec.Threshold, spec.Budget = p, threshold, budget
	return core.ConfigFromSpec(spec)
}

// WorkloadByName builds one of the paper's workloads (workload.Preset).
func WorkloadByName(name string, seed uint64) (*workload.Workload, error) {
	cfg, err := workload.Preset(name, seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(cfg), nil
}
