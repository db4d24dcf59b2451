// Command dare-sim runs one cluster simulation and prints its evaluation
// metrics: data locality, GMTT, slowdown, map-task time, replication
// activity, and placement uniformity.
//
// It has four modes, and each reads only its own flags (modeFlags); a
// flag the mode does not read is a usage error. A batch run replays one
// trace; -seeds N replicates it over N seeds; -stream runs an open-ended
// job stream; -resume continues a killed run from its checkpoint, which
// defines the run.
//
// Examples:
//
//	dare-sim                                     # CCT, wl1, FIFO, ElephantTrap defaults
//	dare-sim -scheduler fair -policy lru
//	dare-sim -profile ec2 -workload wl2 -p 0.5 -budget 0.1 -jobs 200
//	dare-sim -policy vanilla -seed 7 -v          # baseline with per-job dump
//
// Exit status: 0 ok, 1 error, 2 usage, 130 interrupted, 137 simulated
// crash (-crash-after-checkpoints).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"dare"
)

func main() {
	// One SIGINT/SIGTERM requests a clean stop at the next event boundary —
	// the event log is flushed and, when -checkpoint is armed, a final
	// checkpoint is written first. A second signal exits immediately.
	var interrupt atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		interrupt.Store(true)
		fmt.Fprintln(os.Stderr, "dare-sim: interrupt received; stopping at the next event boundary (^C again to exit now)")
		<-sigCh
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, &interrupt))
}

// errCrash is the -crash-after-checkpoints hook's error. The checkpoint
// has just flushed the recorder, and run only closes the sink files, which
// writes nothing: they hold what a SIGKILL at that boundary would leave.
var errCrash = errors.New("simulated crash")

// run is the whole command: it parses args, runs one mode with results on
// stdout and diagnostics on stderr, and returns the exit status. Raising
// interrupt stops the run cleanly at the next event boundary.
func run(args []string, stdout, stderr io.Writer, interrupt *atomic.Bool) int {
	fs := flag.NewFlagSet("dare-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := c.checkUsage(fs); err != nil {
		fmt.Fprintln(stderr, "dare-sim:", err)
		return 2
	}
	err := c.exec(stdout, stderr, interrupt)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errCrash):
		return 137
	case errors.Is(err, dare.ErrInterrupted):
		return 130
	}
	fmt.Fprintln(stderr, "dare-sim:", err)
	return 1
}

// cli holds the parsed flags.
type cli struct {
	profile, profileFile, workload, scheduler, policy, policyFile string
	csv, masterRecovery, events, checkpoint, resume, streamReport string
	verbose, speculation, noRepair, churn, chaos, check, stream   bool
	nodes, rackSize, jobs, fairSkips, fail, chaosEvents           int
	masterCheckpoint, timeline, parallel, seeds, crashAfter       int
	p, budget, failAt, mttf, mttr, rackFailProb, chaosMaster      float64
	masterFailAt, masterDown, streamWindow, streamHorizon         float64
	streamDiurnal, streamPeriod                                   float64
	threshold                                                     int64
	seed, checkpointEvery                                         uint64

	base dare.Options // what every seed of a fresh run shares (resolve)
}

func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{}
	def := dare.DefaultPolicy()
	fs.StringVar(&c.profile, "profile", "cct", "cluster profile: cct | ec2 | ec2-20 (Table III)")
	fs.StringVar(&c.profileFile, "profile-file", "", "load a custom cluster profile from a JSON spec file")
	fs.IntVar(&c.nodes, "nodes", 0, "override the profile's cluster size (slaves); scale runs beyond the paper's testbeds")
	fs.IntVar(&c.rackSize, "rack-size", 0, "override nodes per rack (dedicated profiles; 0 = keep the profile's)")
	fs.StringVar(&c.workload, "workload", "wl1", "workload: wl1 (small jobs) | wl2 (small after large)")
	fs.IntVar(&c.jobs, "jobs", 0, "truncate the workload to this many jobs (0 = full 500)")
	fs.StringVar(&c.scheduler, "scheduler", "fifo", "scheduler: fifo | fair")
	fs.IntVar(&c.fairSkips, "fair-skips", 0, "delay-scheduling patience in skipped opportunities (0 = default)")
	fs.StringVar(&c.policy, "policy", "elephanttrap", "replication policy: "+dare.PolicyNameList())
	fs.StringVar(&c.policyFile, "policy-file", "", "load a policy config (JSON PolicySpec); excludes -policy, -p, -threshold and -budget; see configs/")
	fs.Float64Var(&c.p, "p", def.P, "ElephantTrap sampling probability")
	fs.Int64Var(&c.threshold, "threshold", def.Threshold, "ElephantTrap aging threshold")
	fs.Float64Var(&c.budget, "budget", def.BudgetFraction, "replication budget (fraction of per-node primary bytes)")
	fs.Uint64Var(&c.seed, "seed", 42, "random seed (runs are deterministic per seed)")
	fs.BoolVar(&c.verbose, "v", false, "also dump per-job results")
	fs.StringVar(&c.csv, "csv", "", "write per-job results to this CSV file")
	fs.BoolVar(&c.speculation, "speculation", false, "enable Hadoop-style speculative execution")
	fs.IntVar(&c.fail, "fail", 0, "kill this many nodes mid-run (failure injection)")
	fs.Float64Var(&c.failAt, "fail-at", 0.5, "failure time as a fraction of the arrival span")
	fs.BoolVar(&c.noRepair, "no-repair", false, "disable HDFS-style re-replication after failures")
	fs.BoolVar(&c.churn, "churn", false, "generate a seeded stochastic failure/recovery schedule")
	fs.Float64Var(&c.mttf, "mttf", 0, "churn: per-node mean time to failure in sim seconds (0 = auto-scale)")
	fs.Float64Var(&c.mttr, "mttr", 0, "churn: mean time to repair in sim seconds (0 = auto-scale)")
	fs.Float64Var(&c.rackFailProb, "rack-fail-prob", 0, "churn: probability a failure takes a whole rack (0 = default)")
	fs.BoolVar(&c.chaos, "chaos", false, "generate a seeded gray-failure scenario (crashes, slow nodes, corruption, flaps) and enable integrity-aware reads")
	fs.IntVar(&c.chaosEvents, "chaos-events", 0, "chaos: number of injections to draw (0 = default 16)")
	fs.Float64Var(&c.chaosMaster, "chaos-master", 0, "chaos: master-crash class weight (0 = chaos never takes the control plane down)")
	fs.Float64Var(&c.masterFailAt, "master-fail-at", 0, "crash the master (name node + job tracker) at this fraction of the arrival span (0 = never)")
	fs.Float64Var(&c.masterDown, "master-down", 0, "master outage length in sim seconds (0 = a sixteenth of the span)")
	fs.StringVar(&c.masterRecovery, "master-recovery", "journal", "master recovery mode: journal (checkpoint + edit-log replay) | report (cold start warmed by per-node block reports)")
	fs.IntVar(&c.masterCheckpoint, "master-checkpoint", 0, "checkpoint the metadata journal every N records (0 = only at recovery)")
	fs.BoolVar(&c.check, "check", false, "run the metadata invariant checker after every failure/recovery event")
	fs.IntVar(&c.timeline, "timeline", 0, "print mean locality over N consecutive job buckets (convergence view)")
	fs.IntVar(&c.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&c.seeds, "seeds", 1, "replicate the run over N consecutive seeds and print a per-seed table")
	fs.StringVar(&c.events, "events", "", "write the run's full cluster event trace to this JSONL file")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "write durable checkpoints of the full run state to this file (atomically rotated; .prev keeps the previous generation)")
	fs.Uint64Var(&c.checkpointEvery, "checkpoint-every", 0, "checkpoint cadence in processed simulation events (0 = 200000)")
	fs.StringVar(&c.resume, "resume", "", "resume a killed run, batch or stream, from this checkpoint file, which defines the run; sinks (-events, -stream-report) must match the original run's")
	fs.IntVar(&c.crashAfter, "crash-after-checkpoints", 0, "test hook: hard-exit (as if SIGKILLed) right after the Nth durable checkpoint")
	fs.BoolVar(&c.stream, "stream", false, "service mode: open-ended job stream synthesized window by window (diurnal load), per-window JSONL metrics, run until -stream-horizon or SIGINT")
	fs.Float64Var(&c.streamWindow, "stream-window", 60, "stream: generation/report window in simulated seconds")
	fs.Float64Var(&c.streamHorizon, "stream-horizon", 0, "stream: stop generating at this simulated time and drain (0 = run until interrupted)")
	fs.StringVar(&c.streamReport, "stream-report", "-", "stream: write per-window JSONL metrics here (- = stdout, empty = disabled)")
	fs.Float64Var(&c.streamDiurnal, "stream-diurnal", 0.5, "stream: diurnal arrival-rate amplitude in [0,1) (0 = stationary)")
	fs.Float64Var(&c.streamPeriod, "stream-period", 0, "stream: diurnal period in simulated seconds (0 = 24h)")
	return c
}

const (
	shapeFlags   = "profile profile-file nodes rack-size speculation workload scheduler fair-skips policy policy-file p threshold budget seed check "
	traceFlags   = "jobs fail fail-at no-repair churn mttf mttr rack-fail-prob chaos chaos-events chaos-master master-fail-at master-down master-recovery master-checkpoint "
	durableFlags = "events checkpoint checkpoint-every crash-after-checkpoints "
)

// modeFlags is the one table of the flags each mode reads. shapeFlags
// shape any fresh run; traceFlags need a fixed trace (its length, and the
// fault schedules timed by its arrival span); durableFlags are one run's
// sinks and checkpoints. A checkpoint defines the run it resumes.
var modeFlags = map[string]string{
	"batch":   shapeFlags + traceFlags + durableFlags + "seeds v csv timeline",
	"-seeds":  shapeFlags + traceFlags + "seeds parallel",
	"-stream": shapeFlags + durableFlags + "stream stream-window stream-horizon stream-report stream-diurnal stream-period",
	"-resume": durableFlags + "resume stream-report",
}

// checkUsage rejects a command line that would silently drop part of
// itself: a positional argument, a flag its mode does not read, a policy
// flag next to the -policy-file that replaces it, or a negative count
// where 0 already means "keep the default".
func (c *cli) checkUsage(fs *flag.FlagSet) error {
	mode := "batch"
	switch {
	case c.resume != "":
		mode = "-resume"
	case c.stream:
		mode = "-stream"
	case c.seeds > 1:
		mode = "-seeds"
	}
	var unread, fileOverrides []string
	fs.Visit(func(f *flag.Flag) {
		switch {
		case !slices.Contains(strings.Fields(modeFlags[mode]), f.Name):
			unread = append(unread, "-"+f.Name)
		case c.policyFile != "" && slices.Contains([]string{"policy", "p", "threshold", "budget"}, f.Name):
			fileOverrides = append(fileOverrides, "-"+f.Name)
		}
	})
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case len(unread) > 0:
		return fmt.Errorf("%s mode does not read %s", mode, strings.Join(unread, ", "))
	case len(fileOverrides) > 0:
		return fmt.Errorf("-policy-file excludes %s", strings.Join(fileOverrides, ", "))
	case c.crashAfter > 0 && c.checkpoint == "" && c.resume == "":
		return errors.New("-crash-after-checkpoints needs -checkpoint or -resume")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", c.nodes}, {"rack-size", c.rackSize}, {"jobs", c.jobs}, {"fail", c.fail}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must be >= 0, got %d", f.name, f.v)
		}
	}
	return nil
}

// result is a finished single run. head precedes its scheduler line, and
// policyArgs follows its policy's name.
type result struct {
	out              *dare.Output
	head, policyArgs string
}

// exec runs the parsed command line.
func (c *cli) exec(stdout, stderr io.Writer, interrupt *atomic.Bool) error {
	ck := dare.CheckpointSpec{Path: c.checkpoint, Every: c.checkpointEvery, Interrupt: interrupt}
	if c.crashAfter > 0 {
		ck.AfterCheckpoint = func(done int) error {
			if done < c.crashAfter {
				return nil
			}
			fmt.Fprintf(stderr, "dare-sim: simulated crash after checkpoint %d\n", done)
			return errCrash
		}
	}
	if !c.stream && c.resume == "" {
		c.streamReport = "" // only a stream writes a report
	}
	if c.resume == "" {
		if err := c.resolve(); err != nil {
			return err
		}
	}
	var sk sinks
	defer sk.close()
	var res result
	var err error
	switch {
	case c.resume != "":
		if ck.Path == "" {
			ck.Path = c.resume // keep checkpointing where we resumed from
		}
		res, err = c.runResumed(&sk, stdout, stderr, ck)
	case c.seeds > 1:
		dare.SetParallelism(c.parallel)
		return c.multiSeed(stdout)
	default:
		res, err = c.runFresh(&sk, stdout, stderr, ck)
	}
	if errors.Is(err, dare.ErrInterrupted) {
		// The event log is flushed, and the final checkpoint written when
		// armed: close the sinks and say where to pick the run back up.
		if err := sk.close(); err != nil {
			return err
		}
		if ck.Path != "" {
			fmt.Fprintf(stdout, "interrupted: final checkpoint written to %s; continue with -resume %s\n", ck.Path, ck.Path)
		} else {
			fmt.Fprintln(stdout, "interrupted: stopped cleanly at an event boundary (no -checkpoint armed, nothing durable written)")
		}
	}
	if err != nil {
		return err
	}
	return c.report(stdout, res, &sk)
}

// optionsFor builds a fresh run's options at seed, for batch, -seeds and
// -stream alike. A stream has no workload: it samples its arrivals from
// the preset window by window. Otherwise the workload and the fault
// schedules, which are timed by its arrival span, are generated per seed.
func (c *cli) optionsFor(seed uint64) (dare.Options, error) {
	opts := c.base
	opts.Seed = seed
	if c.stream {
		return opts, nil
	}
	cfg, err := dare.WorkloadPreset(c.workload, seed)
	if err != nil {
		return opts, err
	}
	wl := dare.GenerateWorkload(cfg)
	if c.jobs > 0 && c.jobs < len(wl.Jobs) {
		wl.Jobs = wl.Jobs[:c.jobs]
	}
	opts.Workload = wl
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	for i := 0; i < c.fail && i < opts.Profile.Slaves; i++ {
		opts.Failures = append(opts.Failures, dare.NodeFailure{Node: i, At: span*c.failAt + 0.01*float64(i)})
	}
	if c.churn {
		spec := dare.DefaultChurnSpec(span, opts.Profile.Slaves)
		if c.mttf > 0 {
			spec.MTTF = c.mttf
		}
		if c.mttr > 0 {
			spec.MTTR = c.mttr
		}
		if c.rackFailProb > 0 {
			spec.RackFailProb = c.rackFailProb
		}
		opts.Churn = &spec
	}
	if c.chaos {
		opts.Chaos = &dare.ChaosSpec{Events: c.chaosEvents, MasterWeight: c.chaosMaster, MasterRecovery: c.masterRecovery}
	}
	if c.masterFailAt > 0 {
		down := c.masterDown
		if down <= 0 {
			down = span / 16
		}
		opts.MasterOutages = []dare.MasterOutage{{At: span * c.masterFailAt, Down: down, Mode: c.masterRecovery}}
	}
	opts.MasterCheckpointEvery = c.masterCheckpoint
	opts.DisableRepair = c.noRepair
	return opts, nil
}

// resolve builds what every seed of a fresh run shares: the profile with
// its overrides and the policy arm.
func (c *cli) resolve() error {
	mk, ok := profiles[c.profile]
	if !ok {
		return fmt.Errorf("unknown profile %q (want cct|ec2|ec2-20)", c.profile)
	}
	profile := mk()
	if c.profileFile != "" {
		f, err := os.Open(c.profileFile)
		if err != nil {
			return err
		}
		profile, err = dare.LoadProfile(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if c.nodes > 0 {
		profile.Slaves = c.nodes
		profile.Name = fmt.Sprintf("%s-%d", profile.Name, c.nodes)
	}
	if c.rackSize > 0 {
		profile.RackSize = c.rackSize
	}
	profile.SpeculativeExecution = c.speculation
	policy, set, err := resolvePolicy(c.policy, c.policyFile, c.p, c.threshold, c.budget)
	c.base = dare.Options{Profile: profile, Scheduler: c.scheduler, FairSkips: c.fairSkips,
		Policy: policy, PolicySet: set, CheckInvariants: c.check}
	return err
}

var profiles = map[string]func() *dare.Profile{"cct": dare.CCT, "ec2": dare.EC2, "ec2-20": dare.EC2Small}

// resolvePolicy resolves the policy flags, range-checked, and loads the
// -policy-file arm when file is set. That arm takes precedence in the
// run, so the flag values it leaves unused go unchecked.
func resolvePolicy(name, file string, p float64, threshold int64, budget float64) (dare.PolicyConfig, *dare.PolicySet, error) {
	policy, err := dare.FlagPolicy(name, p, threshold, budget)
	if err != nil {
		return policy, nil, err
	}
	if file == "" {
		return policy, nil, policy.Validate()
	}
	set, err := dare.LoadPolicy(file)
	return policy, set, err
}

// runFresh starts a batch run, or a stream that runs until -stream-horizon
// or a signal, with per-window JSONL metrics.
func (c *cli) runFresh(sk *sinks, stdout, stderr io.Writer, ck dare.CheckpointSpec) (result, error) {
	opts, err := c.optionsFor(c.seed)
	if err != nil {
		return result{}, err
	}
	scfg := dare.StreamRunSpec{DiurnalAmplitude: c.streamDiurnal, DiurnalPeriod: c.streamPeriod, Window: c.streamWindow, Horizon: c.streamHorizon}
	if c.stream {
		if scfg.Gen, err = dare.WorkloadPreset(c.workload, c.seed); err != nil {
			return result{}, err
		}
		if scfg.Horizon <= 0 && ck.Path == "" {
			fmt.Fprintln(stderr, "dare-sim: stream mode without -stream-horizon runs until ^C; arm -checkpoint to make the run durable")
		}
	}
	if err := sk.open(c.events, c.streamReport, stdout); err != nil {
		return result{}, err
	}
	opts.EventLog = sk.events
	if c.stream {
		out, err := dare.RunStream(opts, scfg, sk.report, ck)
		return result{out: out, head: fmt.Sprintf("stream        %s gen, window %.0fs, horizon %.0fs, diurnal amplitude %.2f\n",
			scfg.Gen.Name, scfg.Window, scfg.Horizon, scfg.DiurnalAmplitude)}, err
	}
	out, err := dare.RunCheckpointed(opts, ck)
	if err != nil {
		return result{}, err
	}
	pr, wl, p, threshold, budget := opts.Profile, opts.Workload, c.p, c.threshold, c.budget
	if set := opts.PolicySet; set != nil {
		// A -policy-file arm reports the file's scalars, not the unused
		// flag values; built-in files carry the flag defaults, so the
		// line stays byte-identical to the equivalent -policy run.
		p, threshold, budget = set.P, set.Threshold, set.Budget
	}
	return result{out: out,
		head: fmt.Sprintf("cluster       %s (%d slaves, %d map slots)\nworkload      %s (%d jobs, %d map tasks)\n",
			pr.Name, pr.Slaves, pr.Slaves*pr.MapSlotsPerNode, wl.Name, out.Summary.Jobs, wl.TotalMaps()),
		policyArgs: fmt.Sprintf(" (p=%.2f threshold=%d budget=%.2f)", p, threshold, budget),
	}, nil
}

// runResumed continues a killed run, batch or stream as its checkpoint
// says, from the checkpoint file. When every sink still holds the prefix
// the checkpoint recorded, the sinks are truncated to the cut and the
// post-cut suffix appended (O(state) restore); when one lost its prefix,
// all of them are rewritten from genesis by a replay resume,
// byte-identically to an uninterrupted run.
func (c *cli) runResumed(sk *sinks, stdout, stderr io.Writer, ck dare.CheckpointSpec) (result, error) {
	info, err := dare.InspectCheckpoint(c.resume)
	if err != nil {
		return result{}, err
	}
	if !info.Stream && c.streamReport == "-" {
		c.streamReport = "" // the default; a batch run given a report path fails
	}
	mode, report := dare.ResumeState, c.streamReport
	if report == "-" {
		sk.report, report = stdout, ""
	}
	for _, s := range []struct {
		w      *io.Writer
		path   string
		prefix int64
	}{{&sk.events, c.events, info.EventBytes}, {&sk.report, report, info.ReportBytes}} {
		if ok, err := sk.openAt(s.w, s.path, s.prefix); err != nil {
			return result{}, err
		} else if !ok {
			fmt.Fprintf(stderr, "dare-sim: %s is shorter than the checkpoint's %d-byte prefix; falling back to a replay resume\n", s.path, s.prefix)
			mode = dare.ResumeReplay
			break
		}
	}
	if mode == dare.ResumeReplay {
		if err := sk.close(); err != nil {
			return result{}, err
		}
		if err := sk.open(c.events, c.streamReport, stdout); err != nil {
			return result{}, err
		}
	}
	out, err := dare.ResumeStreamWithMode(c.resume, sk.events, sk.report, ck, mode)
	return result{out: out, head: fmt.Sprintf("resumed       %s (%s mode)\n", c.resume, mode)}, err
}

// report prints a finished single run — its head, the metric block and a
// batch run's per-job extras — then closes the sinks and says where the
// trace went.
func (c *cli) report(w io.Writer, res result, sk *sinks) error {
	out := res.out
	fmt.Fprintf(w, "%sscheduler     %s\npolicy        %s%s\n\n", res.head, out.SchedulerName, out.PolicyName, res.policyArgs)
	// -speculation also shapes a stream, but only a batch run prints its
	// backups.
	printMetrics(w, out, c.chaos, c.speculation && !c.stream, c.timeline)
	if c.verbose {
		fmt.Fprintf(w, "\n%6s %10s %10s %9s %9s %6s\n", "job", "arrival", "finish", "locality", "slowdown", "maps")
		for _, r := range out.Results {
			fmt.Fprintf(w, "%6d %10.2f %10.2f %9.3f %9.2f %6d\n", r.ID, r.Arrival, r.Finish, r.Locality(), r.Slowdown(), r.NumMaps)
		}
	}
	if c.csv != "" {
		if err := writeResultsCSV(c.csv, out); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote per-job results to %s\n", c.csv)
	}
	if err := sk.close(); err != nil {
		return err
	}
	if c.events != "" {
		fmt.Fprintf(w, "\nwrote event trace to %s (%d events: %s)\n", c.events, out.EventCounts.Total(), out.EventCounts)
	}
	return nil
}

// multiSeed replicates the configured run over consecutive seeds on the
// worker pool and prints one summary row per seed plus the means — the
// quick way to see how robust a configuration's metrics are to the seed.
func (c *cli) multiSeed(w io.Writer) error {
	opts := make([]dare.Options, c.seeds)
	for i := range opts {
		var err error
		if opts[i], err = c.optionsFor(c.seed + uint64(i)); err != nil {
			return err
		}
	}
	outs, err := dare.RunAll(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %9s %9s %9s %10s %9s\n", "seed", "locality", "gmtt(s)", "slowdown", "makespan", "replicas")
	var locality, gmtt, slowdown, makespan float64
	for i, out := range outs {
		s := out.Summary
		fmt.Fprintf(w, "%8d %9.3f %9.2f %9.2f %10.1f %9d\n",
			c.seed+uint64(i), s.JobLocality, s.GMTT, s.MeanSlowdown, s.Makespan, s.ReplicasCreated)
		locality += s.JobLocality
		gmtt += s.GMTT
		slowdown += s.MeanSlowdown
		makespan += s.Makespan
	}
	f := float64(c.seeds)
	fmt.Fprintf(w, "%8s %9.3f %9.2f %9.2f %10.1f\n", "mean", locality/f, gmtt/f, slowdown/f, makespan/f)
	return nil
}

// printMetrics renders the evaluation block shared by batch, resumed, and
// streaming runs.
func printMetrics(w io.Writer, out *dare.Output, chaos, speculative bool, timeline int) {
	s := out.Summary
	fmt.Fprintf(w, "job locality       %.3f   (node-local fraction, mean per job)\n", s.JobLocality)
	fmt.Fprintf(w, "task locality      %.3f   (rack %.3f, remote %.3f)\n", s.TaskLocality, s.RackFraction, s.RemoteFraction)
	fmt.Fprintf(w, "GMTT               %.2f s\n", s.GMTT)
	fmt.Fprintf(w, "mean slowdown      %.2f\n", s.MeanSlowdown)
	fmt.Fprintf(w, "mean map time      %.2f s\n", s.MeanMapTime)
	fmt.Fprintf(w, "makespan           %.1f s\n", s.Makespan)
	fmt.Fprintf(w, "replicas created   %d (%.2f per job), evictions %d, disk writes %d\n",
		s.ReplicasCreated, s.BlocksPerJob, s.Evictions, s.DiskWrites)
	fmt.Fprintf(w, "network (input)    %.1f GB moved by non-local reads\n", float64(s.NetworkBytes)/(1<<30))
	fmt.Fprintf(w, "placement cv       %.3f -> %.3f (popularity-index uniformity)\n", out.CVBefore, out.CVAfter)
	tts := make([]float64, 0, len(out.Results))
	for _, r := range out.Results {
		tts = append(tts, r.Turnaround)
	}
	fmt.Fprintf(w, "turnaround p50/p90/p99   %.2f / %.2f / %.2f s\n",
		percentile(tts, 0.50), percentile(tts, 0.90), percentile(tts, 0.99))
	if speculative {
		fmt.Fprintf(w, "speculative backups %d\n", out.SpeculativeLaunches)
	}
	if timeline > 0 {
		fmt.Fprintf(w, "locality timeline  ")
		for _, v := range dare.LocalityTimeline(out.Results, timeline) {
			fmt.Fprintf(w, "%.2f ", v)
		}
		fmt.Fprintln(w)
	}
	if chaos {
		g := out.Gray
		fmt.Fprintf(w, "chaos: %d crashes, %d flaps, %d degradations, %d/%d corruptions detected, %d read retries, %d hedged reads (%d won), %d stale replicas restored\n",
			len(out.FailureEvents)-g.Flaps, g.Flaps, g.Degrades,
			g.CorruptionsDetected, g.CorruptionsInjected, g.ReadRetries,
			g.HedgedReads, g.HedgeWins, g.ReplicasRestored)
	}
	if m := out.Master; m.Outages > 0 {
		fmt.Fprintf(w, "master: %d outages, %.1f s unavailable; %d heartbeats + %d reads deferred, %d maps + %d reduces killed and requeued\n",
			m.Outages, m.Downtime, m.DeferredHeartbeats, m.DeferredReads, m.KilledMaps, m.KilledReduces)
		fmt.Fprintf(w, "master journal: %d checkpoints, %d records pending", m.JournalCheckpoints, m.JournalRecords)
		if m.BlockReports > 0 {
			fmt.Fprintf(w, "; report-mode warmup %.1f s over %d block reports", m.WarmupTime, m.BlockReports)
		}
		fmt.Fprintln(w)
		for _, ev := range out.MasterEvents {
			switch ev.Kind {
			case "crash":
				fmt.Fprintf(w, "master  t=%.1fs crash (weighted availability was %.4f)\n", ev.Time, ev.WeightedAvailability)
			case "recover":
				fmt.Fprintf(w, "master  t=%.1fs recover: weighted availability %.4f\n", ev.Time, ev.WeightedAvailability)
			}
		}
	}
	for _, ev := range out.FailureEvents {
		tag := ""
		if ev.Rack >= 0 {
			tag = fmt.Sprintf(" (rack %d switch)", ev.Rack)
		}
		if ev.Flap {
			tag = " (false-dead flap)"
		}
		fmt.Fprintf(w, "failure t=%.1fs node %d%s: %d maps + %d reduces killed, %d replicas lost, availability %d/%d blocks (weighted %.4f), backlog %d\n",
			ev.Time, ev.Node, tag, ev.KilledMaps, ev.KilledReduces,
			len(ev.Report.LostPrimaries)+len(ev.Report.LostDynamic),
			ev.AvailableBlocks, ev.TotalBlocks, ev.WeightedAvailability, ev.Backlog)
	}
	for _, ev := range out.RecoveryEvents {
		how := "empty re-registration"
		if ev.Restored > 0 {
			how = fmt.Sprintf("re-registered with %d stale replicas", ev.Restored)
		}
		fmt.Fprintf(w, "rejoin  t=%.1fs node %d: %s, backlog %d, weighted availability %.4f\n",
			ev.Time, ev.Node, how, ev.Backlog, ev.WeightedAvailability)
	}
	if len(out.FailureEvents) > 0 {
		fmt.Fprintf(w, "repairs completed   %d block re-replications\n", out.RepairsDone)
	}
	if s.FailedJobs > 0 {
		fmt.Fprintf(w, "failed jobs         %d (task attempts exhausted)\n", s.FailedJobs)
	}
}

// sinks are the event trace and stream report a single run writes
// through, and the files behind them.
type sinks struct {
	events, report io.Writer
	files          []*os.File
}

// open points both sinks at their paths from genesis. An empty path
// disables a sink, and the report path takes "-" for stdout.
func (s *sinks) open(eventsPath, reportPath string, stdout io.Writer) error {
	if _, err := s.openAt(&s.events, eventsPath, 0); err != nil {
		return err
	}
	if reportPath == "-" {
		s.report = stdout
		return nil
	}
	_, err := s.openAt(&s.report, reportPath, 0)
	return err
}

// openAt points *w at path, truncated to prefix bytes and positioned to
// append: prefix 0 writes from genesis, and a state resume appends the
// post-cut suffix to the dead process's file. ok=false means the file is
// shorter than prefix (lost or rewritten), so it cannot be resumed.
func (s *sinks) openAt(w *io.Writer, path string, prefix int64) (ok bool, err error) {
	if path == "" {
		return true, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	s.files = append(s.files, f)
	st, err := f.Stat()
	if err != nil || st.Size() < prefix {
		return false, err
	}
	if err := f.Truncate(prefix); err != nil {
		return false, err
	}
	*w = f
	_, err = f.Seek(prefix, io.SeekStart)
	return err == nil, err
}

// close closes every open sink file, reports the first error, and leaves
// no sink open.
func (s *sinks) close() error {
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	*s = sinks{}
	return first
}

// writeResultsCSV dumps one row per job for external plotting.
func writeResultsCSV(path string, out *dare.Output) error {
	var b strings.Builder
	b.WriteString("job,arrival,finish,turnaround,dedicated,slowdown,maps,local,rack,remote,locality,remote_bytes\n")
	for _, r := range out.Results {
		fmt.Fprintf(&b, "%d,%.3f,%.3f,%.3f,%.3f,%.4f,%d,%d,%d,%d,%.4f,%d\n", r.ID, r.Arrival, r.Finish, r.Turnaround,
			r.Dedicated, r.Slowdown(), r.NumMaps, r.Local, r.Rack, r.Remote, r.Locality(), r.RemoteBytes)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// percentile computes the q-quantile without mutating xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}
