// Package dare is a faithful, simulation-backed reproduction of
//
//	Cristina L. Abad, Yi Lu, Roy H. Campbell.
//	"DARE: Adaptive Data Replication for Efficient Cluster Scheduling."
//	IEEE International Conference on Cluster Computing (CLUSTER), 2011.
//
// DARE is a distributed, adaptive data-replication mechanism for
// MapReduce/HDFS clusters: each data node independently turns the remote
// block fetches that non-local map tasks already perform into new
// "dynamic" replicas — at zero extra network cost — and evicts them under
// a storage budget using either a greedy LRU policy (paper Algorithm 1) or
// the probabilistic ElephantTrap policy with competitive aging (paper
// Algorithm 2). The extra replicas of popular blocks give any
// locality-aware scheduler more placement choices, raising map-task data
// locality and cutting turnaround time and slowdown.
//
// This package is the public facade over the full reproduction stack:
//
//   - a deterministic discrete-event cluster simulator with an HDFS-like
//     file system (name node, blocks, rack-aware placement) and a
//     MapReduce execution model (job tracker, heartbeats, map/reduce
//     slots, calibrated local/remote read costs);
//   - the FIFO and Fair-with-delay-scheduling schedulers the paper
//     evaluates under;
//   - the DARE policies themselves;
//   - SWIM-style synthetic Facebook workloads (wl1, wl2) and a synthetic
//     Yahoo!-shaped audit log with the paper's §III analyses;
//   - an experiment registry regenerating every table and figure of the
//     paper's evaluation (see EXPERIMENTS.md for the index).
//
// Quick start:
//
//	out, err := dare.Run(dare.Options{
//	    Profile:   dare.CCT(),
//	    Workload:  dare.WL1(42),
//	    Scheduler: "fifo",
//	    Policy:    dare.DefaultPolicy(),
//	    Seed:      42,
//	})
//	if err != nil { ... }
//	fmt.Printf("locality %.2f, GMTT %.1fs\n", out.Summary.JobLocality, out.Summary.GMTT)
package dare

import (
	"io"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/netprobe"
	"dare/internal/policy"
	"dare/internal/runner"
	"dare/internal/stats"
	"dare/internal/trace"
	"dare/internal/workload"
)

// ---------------------------------------------------------------------------
// Cluster profiles (Table III)

// Profile describes one test cluster: Table III's descriptive rows plus
// the performance models calibrated from Tables I-II.
type Profile = config.Profile

// CCT returns the dedicated 20-node cluster profile of Table III.
func CCT() *Profile { return config.CCT() }

// EC2 returns the virtualized 100-node EC2 profile of Table III.
func EC2() *Profile { return config.EC2() }

// EC2Small returns the 20-node EC2 variant used for the §II-B probes.
func EC2Small() *Profile { return config.EC2Small() }

// TableIII renders the cluster-configuration table.
func TableIII(profiles ...*Profile) string { return config.TableIII(profiles...) }

// ProfileSpec is a JSON-serializable cluster description; LoadProfile
// decodes one and builds a validated Profile, so experiments on clusters
// the paper never measured need only a config file.
type ProfileSpec = config.ProfileSpec

// LoadProfile decodes a JSON ProfileSpec from r.
func LoadProfile(r io.Reader) (*Profile, error) { return config.LoadProfile(r) }

// ---------------------------------------------------------------------------
// DARE policies (§IV)

// PolicyKind selects a replication policy.
type PolicyKind = core.PolicyKind

// Policy kinds: vanilla Hadoop (no dynamic replication), greedy LRU
// (Algorithm 1), probabilistic ElephantTrap (Algorithm 2), and the
// epoch-based Scarlett baseline (§VI) for adaptation comparisons.
const (
	Vanilla      = core.NonePolicy
	GreedyLRU    = core.GreedyLRUPolicy
	GreedyLFU    = core.GreedyLFUPolicy
	ElephantTrap = core.ElephantTrapPolicy
	Scarlett     = core.ScarlettPolicy
)

// PolicyConfig parameterizes DARE (sampling probability p, aging
// threshold, replication budget, heartbeat-coupled delays).
type PolicyConfig = core.Config

// DefaultPolicy returns the paper's headline configuration: ElephantTrap
// with p = 0.3, threshold = 1, budget = 0.2 (Fig. 7).
func DefaultPolicy() PolicyConfig { return core.DefaultConfig() }

// PolicyFor returns the evaluated configuration for a policy kind.
func PolicyFor(kind PolicyKind) PolicyConfig { return runner.PolicyFor(kind) }

// ParsePolicyKind converts a CLI spelling ("vanilla", "lru",
// "elephanttrap") into a PolicyKind.
func ParsePolicyKind(s string) (PolicyKind, error) { return core.ParsePolicyKind(s) }

// PolicyNameList renders the accepted policy spellings ("vanilla|lru|...")
// from the shared name registry, for CLI usage strings.
func PolicyNameList() string { return policy.PolicyNameList() }

// RenderPolicyNames renders the policy-name registry as a markdown table
// (canonical name, aliases, behavior) — the source of README's table.
func RenderPolicyNames() string { return policy.RenderPolicyNameTable() }

// ---------------------------------------------------------------------------
// Policy config files (-policy-file)

// PolicySpec is the JSON form of a policy configuration: a policy kind
// with scalar knobs plus optional declarative rule overrides for
// replication admission/eviction, repair-target ranking, speculation,
// blacklisting, and the job-fail gate. PolicySet is the built, validated
// form that plugs into Options.PolicySet. RuleSpec is one node of a rule
// tree; RuleTable/RunRuleTable give rule specs an `opa test`-style table
// harness.
type (
	PolicySpec = config.PolicySpec
	PolicySet  = config.PolicySet
	RuleSpec   = policy.RuleSpec
	RuleTable  = policy.Table
)

// LoadPolicy reads and validates a policy config file (-policy-file).
func LoadPolicy(path string) (*PolicySet, error) { return config.LoadPolicy(path) }

// ReadPolicy decodes and validates a policy config from r.
func ReadPolicy(r io.Reader) (*PolicySet, error) { return config.ReadPolicy(r) }

// BuiltinPolicy builds the named built-in arm — the config-file arm whose
// run is byte-identical to the equivalent -policy flag run.
func BuiltinPolicy(name string) (*PolicySet, error) { return config.BuiltinPolicy(name) }

// RunRuleTable evaluates one declarative rule table (rows in order, so
// stateful rules see a sequence).
func RunRuleTable(tb *RuleTable) *policy.TableResult { return policy.RunTable(tb) }

// ---------------------------------------------------------------------------
// Workloads (§V-A)

// Workload is a synthetic SWIM-style job trace over a file population.
type Workload = workload.Workload

// WorkloadConfig parameterizes trace synthesis.
type WorkloadConfig = workload.GenConfig

// WL1 builds the paper's first workload: a long sequence of small jobs.
func WL1(seed uint64) *Workload { return workload.WL1(seed) }

// WL2 builds the paper's second workload: small jobs after large jobs.
func WL2(seed uint64) *Workload { return workload.WL2(seed) }

// GenerateWorkload synthesizes a custom trace.
func GenerateWorkload(cfg WorkloadConfig) *Workload { return workload.Generate(cfg) }

// Fig6Points samples the access-pattern CDF used in the experiments.
func Fig6Points(nFiles int, zipfS float64) []stats.CDFPoint {
	return workload.Fig6Points(nFiles, zipfS)
}

// ---------------------------------------------------------------------------
// Simulation (one run)

// Options configures one simulation run; Output carries its metrics.
// NodeFailure schedules failure injection within a run.
type (
	Options     = runner.Options
	Output      = runner.Output
	NodeFailure = runner.NodeFailure
)

// Run executes one full cluster simulation: it builds the cluster from the
// profile, loads the workload's files into the DFS, replays the job trace
// under the chosen scheduler with DARE attached (unless Policy.Kind is
// Vanilla), and returns the evaluation metrics. Deterministic in
// (Options, Seed).
func Run(opts Options) (*Output, error) { return runner.Run(opts) }

// RunAll executes every Options on a bounded worker pool (see
// SetParallelism) and returns the outputs in input order. Each simulated
// world remains single-threaded and deterministic; only whole runs fan
// out, so outs[i] is byte-identical to what a serial Run(opts[i]) returns.
func RunAll(opts []Options) ([]*Output, error) { return runner.RunAll(opts) }

// SetParallelism bounds how many simulations may run concurrently in
// RunAll and the experiments. n <= 0 restores the default
// (GOMAXPROCS).
func SetParallelism(n int) { runner.SetParallelism(n) }

// ---------------------------------------------------------------------------
// Durable runs (checkpoint/restore, crash-resume, service mode)

// CheckpointSpec arms periodic checkpointing of a run (see DESIGN.md §4j):
// Path names the snapshot file (atomically rotated with a .prev
// generation), Every is the checkpoint cadence in processed engine events,
// Interrupt requests a final checkpoint + clean stop when raised (the
// SIGINT path), and AfterCheckpoint observes each durable write.
// DivergenceError is the typed rejection when a resumed run does not
// reproduce the checkpoint's state image; ErrInterrupted reports a run
// stopped by Interrupt after flushing its final checkpoint;
// ErrNotSnapshottable marks runs that cannot be checkpointed (Options
// with no checkpoint spec).
type (
	CheckpointSpec  = runner.CheckpointSpec
	DivergenceError = runner.DivergenceError
)

var (
	ErrInterrupted      = runner.ErrInterrupted
	ErrNotSnapshottable = runner.ErrNotSnapshottable
)

// RunCheckpointed is Run with durable checkpoints: the complete run state
// is snapshotted every spec.Every events, so a process killed at any
// checkpoint boundary can Resume and finish with byte-identical Output
// and event trace. Checkpoint writes are pure observation — an armed
// run's results are byte-identical to an unarmed Run.
func RunCheckpointed(opts Options, ck CheckpointSpec) (*Output, error) {
	return runner.RunCheckpointed(opts, ck)
}

// Resume continues a batch run from the checkpoint at path (falling back
// to the previous generation if the primary is torn or corrupt). eventLog
// must be a fresh sink when the original run had one — the replay
// re-emits the full trace from genesis, byte-identically.
func Resume(path string, eventLog io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.Resume(path, eventLog, ck)
}

// ResumeMode selects the restore strategy: ResumeReplay re-executes the
// event history from genesis to the cut (O(history)); ResumeState decodes
// the checkpoint's direct state image (O(state)). Both verify the
// resumed state against that image before going live. ResumeInfo
// describes a checkpoint so a caller can prepare sinks before choosing
// (see InspectCheckpoint).
type (
	ResumeMode = runner.ResumeMode
	ResumeInfo = runner.ResumeInfo
)

const (
	ResumeReplay = runner.ResumeReplay
	ResumeState  = runner.ResumeState
)

// ParseResumeMode maps a CLI flag value to a ResumeMode ("" means the
// default, ResumeState).
func ParseResumeMode(s string) (ResumeMode, error) { return runner.ParseResumeMode(s) }

// InspectCheckpoint loads the checkpoint at path and describes how it can
// be resumed: batch or stream, and the output-stream byte positions at
// the cut.
func InspectCheckpoint(path string) (*ResumeInfo, error) { return runner.InspectCheckpoint(path) }

// ResumeWithMode is Resume with an explicit restore strategy. In state
// mode eventLog receives only the post-cut suffix of the trace (append it
// to the original log truncated to the cut position — InspectCheckpoint
// reports it); in replay mode the full trace is re-emitted from genesis.
func ResumeWithMode(path string, eventLog io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return runner.ResumeWithMode(path, eventLog, ck, mode)
}

// StreamRunSpec configures service mode (`dare-sim -stream`): open-ended
// window-by-window job synthesis with optional diurnal load modulation;
// StreamReportLine is one JSONL record of its per-window metrics stream.
type (
	StreamRunSpec    = runner.StreamRunSpec
	StreamReportLine = runner.StreamReportLine
)

// RunStream executes a service-mode run; ResumeStream continues one from
// its checkpoint (see runner.RunStream / runner.ResumeStream).
func RunStream(opts Options, scfg StreamRunSpec, report io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.RunStream(opts, scfg, report, ck)
}

// ResumeStream continues a service-mode run from the checkpoint at path.
func ResumeStream(path string, eventLog, report io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.ResumeStream(path, eventLog, report, ck)
}

// ResumeStreamWithMode is ResumeStream with an explicit restore strategy;
// in state mode eventLog and report receive only the post-cut suffix of
// each stream.
func ResumeStreamWithMode(path string, eventLog, report io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return runner.ResumeStreamWithMode(path, eventLog, report, ck, mode)
}

// EventCounts tallies cluster bus events per kind; Output.EventCounts
// reports one run's tallies and TotalBusEvents the process-wide ones. Set
// Options.EventLog to also capture the full JSONL trace (see ReadEventLog).
type EventCounts = event.Counts

// ClusterEvent is one typed cluster event as decoded from a JSONL trace.
type ClusterEvent = event.Event

// TotalBusEvents reports the cumulative per-kind cluster bus event counts
// across all completed runs in this process.
func TotalBusEvents() EventCounts { return runner.TotalBusEvents() }

// ReadEventLog decodes a JSONL trace written via Options.EventLog. Lines
// whose kind this build does not know (a trace from a newer build) are
// skipped; use ReadEventLogSkipped to count them.
func ReadEventLog(r io.Reader) ([]ClusterEvent, error) { return event.ReadLog(r) }

// ReadEventLogSkipped is ReadEventLog, additionally reporting how many
// unknown-kind lines were skipped.
func ReadEventLogSkipped(r io.Reader) ([]ClusterEvent, int, error) { return event.ReadLogSkipped(r) }

// TraceStats summarizes a decoded event log (per-kind volume, sim-time
// span, map-launch locality split, replica churn).
type TraceStats = event.TraceStats

// SummarizeEvents tallies a decoded event log into TraceStats.
func SummarizeEvents(events []ClusterEvent) TraceStats { return event.Summarize(events) }

// JobResult is one job's outcome within Output.Results.
type JobResult = mapreduce.Result

// LocalityTimeline buckets per-job locality into n consecutive groups of
// the job stream, exposing DARE's convergence and adaptation dynamics.
func LocalityTimeline(results []JobResult, n int) []float64 {
	return metrics.LocalityTimeline(results, n)
}

// ---------------------------------------------------------------------------
// Experiments (one per table and figure; see EXPERIMENTS.md)

// Experiment is one table or figure of the evaluation; ExperimentParams
// are the knobs its Run reads (scale, seed, and the fault and policy
// studies' overrides); Table is what it produces: declared columns, rows
// of raw values, a footer note, and one Render; Column declares one
// column's header and cell verb.
type (
	Experiment       = runner.Experiment
	ExperimentParams = runner.Params
	Table            = runner.Table
	Column           = runner.Column
)

// Experiments returns the registry of every table and figure, in
// presentation order.
func Experiments() []Experiment { return runner.Experiments() }

// ReplayConfig converts audit logs into workloads (see
// Workload.FromAuditLog's package documentation).
type ReplayConfig = workload.ReplayConfig

// WorkloadFromAuditLog converts an access-log slice into a replayable
// workload.
func WorkloadFromAuditLog(l *AuditLog, cfg ReplayConfig) (*Workload, error) {
	return workload.FromAuditLog(l, cfg)
}

// ---------------------------------------------------------------------------
// Churn (§IV-B robustness: failures, recoveries, repair)

// Failure-injection scheduling for individual runs: NodeRecovery rejoins a
// failed node (HDFS-style empty re-registration), RackFailure kills every
// live node behind one rack switch, ChurnSpec drives the seeded stochastic
// failure/recovery generator, and RecoveryEvent records a rejoin.
type (
	NodeRecovery  = runner.NodeRecovery
	RackFailure   = runner.RackFailure
	ChurnSpec     = runner.ChurnSpec
	RecoveryEvent = mapreduce.RecoveryEvent
)

// DefaultChurnSpec scales a stochastic churn schedule to an arrival span
// and cluster size (see runner.DefaultChurnSpec).
func DefaultChurnSpec(span float64, nodes int) ChurnSpec {
	return runner.DefaultChurnSpec(span, nodes)
}

// ---------------------------------------------------------------------------
// Gray failures & chaos (slow nodes, corruption, hedged reads, flaps)

// ChaosSpec configures the seeded gray-failure scenario generator (mixed
// crashes, degradations, silent corruption, false-dead flaps); GrayStats
// tallies the gray machinery's activity in Output.Gray.
type (
	ChaosSpec = runner.ChaosSpec
	GrayStats = mapreduce.GrayStats
)

// DefaultChaosSpec scales a chaos scenario to an arrival span (see
// runner.DefaultChaosSpec).
func DefaultChaosSpec(span float64) ChaosSpec { return runner.DefaultChaosSpec(span) }

// ---------------------------------------------------------------------------
// Control-plane failover (master crash, journaled metadata, block reports)

// MasterOutage schedules one master crash/recover pair within a run;
// MasterStats tallies the outage machinery in Output.Master; MasterEvent
// is one control-plane availability sample in Output.MasterEvents.
type (
	MasterOutage = runner.MasterOutage
	MasterStats  = mapreduce.MasterStats
	MasterEvent  = mapreduce.MasterEvent
)

// ScaleProfile builds an n-node dedicated cluster for runs beyond the
// paper's testbeds: CCT's performance models and 0.25 s heartbeat, with
// 40-node racks. perfbench's scale-10k workload runs on it.
func ScaleProfile(nodes int) *Profile { return runner.ScaleProfile(nodes) }

// RenderTraceStats formats a decoded event log's TraceStats.
var RenderTraceStats = event.RenderTraceStats

// ---------------------------------------------------------------------------
// Environment characterization (§II-B: Tables I-II, Fig. 1)

// TableI runs the all-to-all ping campaign and renders Table I.
func TableI(rounds int, seed uint64, profiles ...*Profile) string {
	return netprobe.TableI(rounds, seed, profiles...)
}

// TableII runs the bandwidth campaign and renders Table II.
func TableII(samples int, seed uint64, profiles ...*Profile) string {
	return netprobe.TableII(samples, seed, profiles...)
}

// Fig1 renders the hop-count distribution of a cluster built from p.
func Fig1(p *Profile, seed uint64) string { return netprobe.Fig1(p, seed) }

// BandwidthRatio reports mean network/disk bandwidth — §II-B's insight
// metric (lower means locality pays off more).
func BandwidthRatio(p *Profile, samples int, seed uint64) float64 {
	return netprobe.BandwidthRatio(p, samples, seed)
}

// ---------------------------------------------------------------------------
// Access-pattern characterization (§III: Figs. 2-5)

// AuditLog is a (synthetic or imported) file-access trace.
type AuditLog = trace.Log

// AuditLogConfig parameterizes the synthetic Yahoo!-shaped generator.
type AuditLogConfig = trace.GenConfig

// GenerateAuditLog synthesizes one week of Yahoo!-shaped audit log.
func GenerateAuditLog(cfg AuditLogConfig) *AuditLog { return trace.Generate(cfg) }

// ReadAuditLog parses an audit log written by AuditLog.WriteCSV — the
// shape real HDFS audit data should be converted into for analysis.
func ReadAuditLog(in io.Reader) (*AuditLog, error) { return trace.ReadCSV(in) }

// ReadWorkload parses a workload written by Workload.WriteCSV.
func ReadWorkload(in io.Reader) (*Workload, error) { return workload.ReadCSV(in) }

// Fig2Ranks computes the popularity-vs-rank series of Fig. 2.
func Fig2Ranks(l *AuditLog) []trace.RankPoint { return trace.PopularityRanks(l) }

// Fig3AgeCDF computes the age-at-access CDF of Fig. 3.
func Fig3AgeCDF(l *AuditLog) *stats.ECDF { return trace.AgeCDF(l) }

// Fig4Windows computes the weekly burst-window distribution of Fig. 4.
func Fig4Windows(l *AuditLog) (trace.WindowResult, error) {
	return trace.BurstWindows(l, trace.DefaultWindowConfig(l))
}

// Fig5Windows computes the day-2 burst-window distribution of Fig. 5.
func Fig5Windows(l *AuditLog) (trace.WindowResult, error) {
	return trace.BurstWindows(l, trace.Day2WindowConfig())
}

// HourlyProfile computes the diurnal access profile of a log (the daily
// periodicity behind Fig. 4).
func HourlyProfile(l *AuditLog) [24]float64 { return trace.HourlyProfile(l) }

// Trace renderers.
var (
	RenderRanks         = trace.RenderRanks
	RenderAgeCDF        = trace.RenderAgeCDF
	RenderWindows       = trace.RenderWindows
	RenderHourlyProfile = trace.RenderHourlyProfile
)
