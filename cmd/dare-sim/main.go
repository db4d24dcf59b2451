// Command dare-sim runs one cluster simulation and prints its evaluation
// metrics: data locality, GMTT, slowdown, map-task time, replication
// activity, and placement uniformity.
//
// Examples:
//
//	dare-sim                                     # CCT, wl1, FIFO, ElephantTrap defaults
//	dare-sim -scheduler fair -policy lru
//	dare-sim -profile ec2 -workload wl2 -p 0.5 -budget 0.1 -jobs 200
//	dare-sim -policy vanilla -seed 7 -v          # baseline with per-job dump
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"

	"dare"
)

func main() {
	var (
		profileName = flag.String("profile", "cct", "cluster profile: cct | ec2 | ec2-20 (Table III)")
		profileFile = flag.String("profile-file", "", "load a custom cluster profile from a JSON spec file")
		nodes       = flag.Int("nodes", 0, "override the profile's cluster size (slaves); scale runs beyond the paper's testbeds")
		rackSize    = flag.Int("rack-size", 0, "override nodes per rack (dedicated profiles; 0 = keep the profile's)")
		wlName      = flag.String("workload", "wl1", "workload: wl1 (small jobs) | wl2 (small after large)")
		jobs        = flag.Int("jobs", 0, "truncate the workload to this many jobs (0 = full 500)")
		schedName   = flag.String("scheduler", "fifo", "scheduler: fifo | fair")
		fairSkips   = flag.Int("fair-skips", 0, "delay-scheduling patience in skipped opportunities (0 = default)")
		policyName  = flag.String("policy", "elephanttrap", "replication policy: "+dare.PolicyNameList())
		policyFile  = flag.String("policy-file", "", "load a policy config (JSON PolicySpec) instead of -policy/-p/-threshold/-budget; see configs/")
		p           = flag.Float64("p", 0.3, "ElephantTrap sampling probability")
		threshold   = flag.Int64("threshold", 1, "ElephantTrap aging threshold")
		budget      = flag.Float64("budget", 0.2, "replication budget (fraction of per-node primary bytes)")
		seed        = flag.Uint64("seed", 42, "random seed (runs are deterministic per seed)")
		verbose     = flag.Bool("v", false, "also dump per-job results")
		csvPath     = flag.String("csv", "", "write per-job results to this CSV file")
		speculative = flag.Bool("speculation", false, "enable Hadoop-style speculative execution")
		failNodes   = flag.Int("fail", 0, "kill this many nodes mid-run (failure injection)")
		failAtFrac  = flag.Float64("fail-at", 0.5, "failure time as a fraction of the arrival span")
		noRepair    = flag.Bool("no-repair", false, "disable HDFS-style re-replication after failures")
		churnOn     = flag.Bool("churn", false, "generate a seeded stochastic failure/recovery schedule")
		mttf        = flag.Float64("mttf", 0, "churn: per-node mean time to failure in sim seconds (0 = auto-scale)")
		mttr        = flag.Float64("mttr", 0, "churn: mean time to repair in sim seconds (0 = auto-scale)")
		rackProb    = flag.Float64("rack-fail-prob", 0, "churn: probability a failure takes a whole rack (0 = default)")
		chaosOn     = flag.Bool("chaos", false, "generate a seeded gray-failure scenario (crashes, slow nodes, corruption, flaps) and enable integrity-aware reads")
		chaosEvents = flag.Int("chaos-events", 0, "chaos: number of injections to draw (0 = default 16)")
		chaosMaster = flag.Float64("chaos-master", 0, "chaos: master-crash class weight (0 = chaos never takes the control plane down)")
		masterFail  = flag.Float64("master-fail-at", 0, "crash the master (name node + job tracker) at this fraction of the arrival span (0 = never)")
		masterDown  = flag.Float64("master-down", 0, "master outage length in sim seconds (0 = a sixteenth of the span)")
		masterMode  = flag.String("master-recovery", "journal", "master recovery mode: journal (checkpoint + edit-log replay) | report (cold start warmed by per-node block reports)")
		masterCkpt  = flag.Int("master-checkpoint", 0, "checkpoint the metadata journal every N records (0 = only at recovery)")
		check       = flag.Bool("check", false, "run the metadata invariant checker after every failure/recovery event")
		timeline    = flag.Int("timeline", 0, "print mean locality over N consecutive job buckets (convergence view)")
		parallel    = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		seeds       = flag.Int("seeds", 1, "replicate the run over N consecutive seeds and print a per-seed table")
		eventsPath  = flag.String("events", "", "write the run's full cluster event trace to this JSONL file")
		ckptPath    = flag.String("checkpoint", "", "write durable checkpoints of the full run state to this file (atomically rotated; .prev keeps the previous generation)")
		ckptEvery   = flag.Uint64("checkpoint-every", 0, "checkpoint cadence in processed simulation events (0 = 200000)")
		resumePath  = flag.String("resume", "", "resume a killed run from this checkpoint file (add -stream for service-mode checkpoints); sinks (-events, -stream-report) must match the original run's")
		resumeMode  = flag.String("resume-mode", "state", "resume strategy: state (O(state) direct restore; appends the post-cut suffix to the original sinks) | replay (O(history) oracle; rewrites the sinks from genesis)")
		crashCkpts  = flag.Int("crash-after-checkpoints", 0, "test hook: hard-exit (as if SIGKILLed) right after the Nth durable checkpoint")
		streamOn    = flag.Bool("stream", false, "service mode: open-ended job stream synthesized window by window (diurnal load), per-window JSONL metrics, run until -stream-horizon or SIGINT")
		streamWin   = flag.Float64("stream-window", 60, "stream: generation/report window in simulated seconds")
		streamHor   = flag.Float64("stream-horizon", 0, "stream: stop generating at this simulated time and drain (0 = run until interrupted)")
		streamRep   = flag.String("stream-report", "-", "stream: write per-window JSONL metrics here (- = stdout, empty = disabled)")
		streamAmp   = flag.Float64("stream-diurnal", 0.5, "stream: diurnal arrival-rate amplitude in [0,1) (0 = stationary)")
		streamPer   = flag.Float64("stream-period", 0, "stream: diurnal period in simulated seconds (0 = 24h)")
	)
	flag.Parse()
	dare.SetParallelism(*parallel)

	profile, err := profileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	if *profileFile != "" {
		f, err := os.Open(*profileFile)
		if err != nil {
			fatal(err)
		}
		profile, err = dare.LoadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *nodes > 0 {
		profile.Slaves = *nodes
		profile.Name = fmt.Sprintf("%s-%d", profile.Name, *nodes)
	}
	if *rackSize > 0 {
		profile.RackSize = *rackSize
	}
	kind, err := dare.ParsePolicyKind(*policyName)
	if err != nil {
		fatal(err)
	}
	profile.SpeculativeExecution = *speculative
	policy := dare.PolicyConfig{Kind: kind, P: *p, Threshold: *threshold, BudgetFraction: *budget}
	if kind == dare.Scarlett {
		policy = dare.PolicyFor(dare.Scarlett)
		policy.BudgetFraction = *budget
	}
	var policySet *dare.PolicySet
	if *policyFile != "" {
		policySet, err = dare.LoadPolicy(*policyFile)
		if err != nil {
			fatal(err)
		}
	}

	if *seeds > 1 && (*ckptPath != "" || *resumePath != "" || *streamOn || *crashCkpts > 0) {
		fatal(fmt.Errorf("-checkpoint/-resume/-stream drive one run; they cannot be combined with -seeds %d", *seeds))
	}

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

	ck := dare.CheckpointSpec{Path: *ckptPath, Every: *ckptEvery, Interrupt: &interrupt}
	if *crashCkpts > 0 {
		if *ckptPath == "" && *resumePath == "" {
			fatal(fmt.Errorf("-crash-after-checkpoints needs -checkpoint or -resume"))
		}
		n := *crashCkpts
		ck.AfterCheckpoint = func(done int) error {
			if done >= n {
				// Die without flushing anything: the whole point is to
				// leave exactly what a SIGKILL at this boundary would.
				fmt.Fprintf(os.Stderr, "dare-sim: simulated crash after checkpoint %d\n", done)
				os.Exit(137)
			}
			return nil
		}
	}

	if *resumePath != "" {
		mode, err := dare.ParseResumeMode(*resumeMode)
		if err != nil {
			fatal(err)
		}
		runResumed(*resumePath, *streamOn, *eventsPath, *streamRep, ck, mode)
		return
	}
	if *streamOn {
		scfg := dare.StreamRunSpec{
			DiurnalAmplitude: *streamAmp,
			DiurnalPeriod:    *streamPer,
			Window:           *streamWin,
			Horizon:          *streamHor,
		}
		switch *wlName {
		case "wl1":
			scfg.Gen = dare.WorkloadConfig{Name: "wl1", Seed: *seed}
		case "wl2":
			scfg.Gen = dare.WorkloadConfig{Name: "wl2", Seed: *seed, LargeEvery: 10, MeanInterarrival: 0.6}
		default:
			fatal(fmt.Errorf("unknown workload %q (want wl1|wl2)", *wlName))
		}
		opts := dare.Options{
			Profile:         profile,
			Scheduler:       *schedName,
			FairSkips:       *fairSkips,
			Policy:          policy,
			PolicySet:       policySet,
			Seed:            *seed,
			CheckInvariants: *check,
		}
		runStreaming(opts, scfg, *eventsPath, *streamRep, ck)
		return
	}

	// optionsFor assembles one run's options for a seed; the workload and
	// the failure schedule (whose time scale follows the arrival span) are
	// regenerated per seed.
	optionsFor := func(s uint64) (*dare.Workload, dare.Options, error) {
		var wl *dare.Workload
		switch *wlName {
		case "wl1":
			wl = dare.WL1(s)
		case "wl2":
			wl = dare.WL2(s)
		default:
			return nil, dare.Options{}, fmt.Errorf("unknown workload %q (want wl1|wl2)", *wlName)
		}
		if *jobs > 0 && *jobs < len(wl.Jobs) {
			wl.Jobs = wl.Jobs[:*jobs]
		}
		var failures []dare.NodeFailure
		if *failNodes > 0 {
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			for i := 0; i < *failNodes && i < profile.Slaves; i++ {
				failures = append(failures, dare.NodeFailure{Node: i, At: span**failAtFrac + 0.01*float64(i)})
			}
		}
		var churnSpec *dare.ChurnSpec
		if *churnOn {
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			spec := dare.DefaultChurnSpec(span, profile.Slaves)
			if *mttf > 0 {
				spec.MTTF = *mttf
			}
			if *mttr > 0 {
				spec.MTTR = *mttr
			}
			if *rackProb > 0 {
				spec.RackFailProb = *rackProb
			}
			churnSpec = &spec
		}
		var chaosSpec *dare.ChaosSpec
		if *chaosOn {
			chaosSpec = &dare.ChaosSpec{Events: *chaosEvents, MasterWeight: *chaosMaster, MasterRecovery: *masterMode}
		}
		var masterOutages []dare.MasterOutage
		if *masterFail > 0 {
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			down := *masterDown
			if down <= 0 {
				down = span / 16
			}
			masterOutages = []dare.MasterOutage{{At: span * *masterFail, Down: down, Mode: *masterMode}}
		}
		return wl, dare.Options{
			Profile:               profile,
			Workload:              wl,
			Scheduler:             *schedName,
			FairSkips:             *fairSkips,
			Policy:                policy,
			PolicySet:             policySet,
			Seed:                  s,
			Failures:              failures,
			Churn:                 churnSpec,
			Chaos:                 chaosSpec,
			MasterOutages:         masterOutages,
			MasterCheckpointEvery: *masterCkpt,
			DisableRepair:         *noRepair,
			CheckInvariants:       *check,
		}, nil
	}

	if *seeds > 1 {
		if *eventsPath != "" {
			fatal(fmt.Errorf("-events records one run's trace; it cannot be combined with -seeds %d", *seeds))
		}
		if err := multiSeed(*seed, *seeds, optionsFor); err != nil {
			fatal(err)
		}
		return
	}

	wl, opts, err := optionsFor(*seed)
	if err != nil {
		fatal(err)
	}
	var eventsFile *os.File
	if *eventsPath != "" {
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			fatal(err)
		}
		opts.EventLog = eventsFile
	}
	out, err := dare.RunCheckpointed(opts, ck)
	if errors.Is(err, dare.ErrInterrupted) {
		exitInterrupted(ck.Path, eventsFile, nil)
	}
	if err != nil {
		fatal(err)
	}

	s := out.Summary
	fmt.Printf("cluster       %s (%d slaves, %d map slots)\n", profile.Name, profile.Slaves, profile.Slaves*profile.MapSlotsPerNode)
	fmt.Printf("workload      %s (%d jobs, %d map tasks)\n", wl.Name, s.Jobs, wl.TotalMaps())
	fmt.Printf("scheduler     %s\n", out.SchedulerName)
	pp, pthr, pbud := *p, *threshold, *budget
	if policySet != nil {
		// A -policy-file arm reports the file's scalars, not the unused
		// flag values; built-in files carry the flag defaults, so the
		// line stays byte-identical to the equivalent -policy run.
		pp, pthr, pbud = policySet.P, policySet.Threshold, policySet.Budget
	}
	fmt.Printf("policy        %s (p=%.2f threshold=%d budget=%.2f)\n", out.PolicyName, pp, pthr, pbud)
	fmt.Println()
	printMetrics(out, *chaosOn, *speculative, *timeline)

	if *verbose {
		fmt.Println()
		fmt.Printf("%6s %10s %10s %9s %9s %6s\n", "job", "arrival", "finish", "locality", "slowdown", "maps")
		for _, r := range out.Results {
			fmt.Printf("%6d %10.2f %10.2f %9.3f %9.2f %6d\n", r.ID, r.Arrival, r.Finish, r.Locality(), r.Slowdown(), r.NumMaps)
		}
	}
	if *csvPath != "" {
		if err := writeResultsCSV(*csvPath, out); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote per-job results to %s\n", *csvPath)
	}
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote event trace to %s (%d events: %s)\n",
			*eventsPath, out.EventCounts.Total(), out.EventCounts)
	}
}

// multiSeed replicates the configured run over n consecutive seeds on the
// worker pool and prints one summary row per seed plus the means — the
// quick way to see how robust a configuration's metrics are to the seed.
func multiSeed(base uint64, n int, optionsFor func(uint64) (*dare.Workload, dare.Options, error)) error {
	opts := make([]dare.Options, n)
	for i := 0; i < n; i++ {
		_, o, err := optionsFor(base + uint64(i))
		if err != nil {
			return err
		}
		opts[i] = o
	}
	outs, err := dare.RunAll(opts)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %9s %9s %9s %10s %9s\n", "seed", "locality", "gmtt(s)", "slowdown", "makespan", "replicas")
	var locality, gmtt, slowdown, makespan float64
	for i, out := range outs {
		s := out.Summary
		fmt.Printf("%8d %9.3f %9.2f %9.2f %10.1f %9d\n",
			base+uint64(i), s.JobLocality, s.GMTT, s.MeanSlowdown, s.Makespan, s.ReplicasCreated)
		locality += s.JobLocality
		gmtt += s.GMTT
		slowdown += s.MeanSlowdown
		makespan += s.Makespan
	}
	f := float64(n)
	fmt.Printf("%8s %9.3f %9.2f %9.2f %10.1f\n", "mean", locality/f, gmtt/f, slowdown/f, makespan/f)
	return nil
}

// printMetrics renders the evaluation block shared by batch, resumed, and
// streaming runs.
func printMetrics(out *dare.Output, chaos, speculative bool, timeline int) {
	s := out.Summary
	fmt.Printf("job locality       %.3f   (node-local fraction, mean per job)\n", s.JobLocality)
	fmt.Printf("task locality      %.3f   (rack %.3f, remote %.3f)\n", s.TaskLocality, s.RackFraction, s.RemoteFraction)
	fmt.Printf("GMTT               %.2f s\n", s.GMTT)
	fmt.Printf("mean slowdown      %.2f\n", s.MeanSlowdown)
	fmt.Printf("mean map time      %.2f s\n", s.MeanMapTime)
	fmt.Printf("makespan           %.1f s\n", s.Makespan)
	fmt.Printf("replicas created   %d (%.2f per job), evictions %d, disk writes %d\n",
		s.ReplicasCreated, s.BlocksPerJob, s.Evictions, s.DiskWrites)
	fmt.Printf("network (input)    %.1f GB moved by non-local reads\n", float64(s.NetworkBytes)/(1<<30))
	fmt.Printf("placement cv       %.3f -> %.3f (popularity-index uniformity)\n", out.CVBefore, out.CVAfter)
	tts := make([]float64, 0, len(out.Results))
	for _, r := range out.Results {
		tts = append(tts, r.Turnaround)
	}
	fmt.Printf("turnaround p50/p90/p99   %.2f / %.2f / %.2f s\n",
		percentile(tts, 0.50), percentile(tts, 0.90), percentile(tts, 0.99))
	if speculative {
		fmt.Printf("speculative backups %d\n", out.SpeculativeLaunches)
	}
	if timeline > 0 {
		fmt.Printf("locality timeline  ")
		for _, v := range dare.LocalityTimeline(out.Results, timeline) {
			fmt.Printf("%.2f ", v)
		}
		fmt.Println()
	}
	if chaos {
		g := out.Gray
		fmt.Printf("chaos: %d crashes, %d flaps, %d degradations, %d/%d corruptions detected, %d read retries, %d hedged reads (%d won), %d stale replicas restored\n",
			len(out.FailureEvents)-g.Flaps, g.Flaps, g.Degrades,
			g.CorruptionsDetected, g.CorruptionsInjected, g.ReadRetries,
			g.HedgedReads, g.HedgeWins, g.ReplicasRestored)
	}
	if m := out.Master; m.Outages > 0 {
		fmt.Printf("master: %d outages, %.1f s unavailable; %d heartbeats + %d reads deferred, %d maps + %d reduces killed and requeued\n",
			m.Outages, m.Downtime, m.DeferredHeartbeats, m.DeferredReads, m.KilledMaps, m.KilledReduces)
		fmt.Printf("master journal: %d checkpoints, %d records pending", m.JournalCheckpoints, m.JournalRecords)
		if m.BlockReports > 0 {
			fmt.Printf("; report-mode warmup %.1f s over %d block reports", m.WarmupTime, m.BlockReports)
		}
		fmt.Println()
		for _, ev := range out.MasterEvents {
			switch ev.Kind {
			case "crash":
				fmt.Printf("master  t=%.1fs crash (weighted availability was %.4f)\n", ev.Time, ev.WeightedAvailability)
			case "recover":
				fmt.Printf("master  t=%.1fs recover: weighted availability %.4f\n", ev.Time, ev.WeightedAvailability)
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
		fmt.Printf("failure t=%.1fs node %d%s: %d maps + %d reduces killed, %d replicas lost, availability %d/%d blocks (weighted %.4f), backlog %d\n",
			ev.Time, ev.Node, tag, ev.KilledMaps, ev.KilledReduces,
			len(ev.Report.LostPrimaries)+len(ev.Report.LostDynamic),
			ev.AvailableBlocks, ev.TotalBlocks, ev.WeightedAvailability, ev.Backlog)
	}
	for _, ev := range out.RecoveryEvents {
		how := "empty re-registration"
		if ev.Restored > 0 {
			how = fmt.Sprintf("re-registered with %d stale replicas", ev.Restored)
		}
		fmt.Printf("rejoin  t=%.1fs node %d: %s, backlog %d, weighted availability %.4f\n",
			ev.Time, ev.Node, how, ev.Backlog, ev.WeightedAvailability)
	}
	if len(out.FailureEvents) > 0 {
		fmt.Printf("repairs completed   %d block re-replications\n", out.RepairsDone)
	}
	if s.FailedJobs > 0 {
		fmt.Printf("failed jobs         %d (task attempts exhausted)\n", s.FailedJobs)
	}
}

// openSinks creates the event-trace and stream-report files the durable
// modes write through. An empty events path disables the trace; the
// report path accepts "-" for stdout and "" for disabled.
func openSinks(eventsPath, reportPath string) (eventsFile, reportFile *os.File, eventLog, report io.Writer) {
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			fatal(err)
		}
		eventsFile, eventLog = f, f
	}
	switch reportPath {
	case "":
	case "-":
		report = os.Stdout
	default:
		f, err := os.Create(reportPath)
		if err != nil {
			fatal(err)
		}
		reportFile, report = f, f
	}
	return
}

// closeSinks flushes and closes whichever durable-mode sinks are open.
func closeSinks(files ...*os.File) {
	for _, f := range files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// exitInterrupted finishes a run stopped by SIGINT/SIGTERM: the event log
// is already flushed to the sinks (and the final checkpoint written when
// armed), so close everything and report where to pick the run back up.
func exitInterrupted(ckPath string, files ...*os.File) {
	closeSinks(files...)
	if ckPath != "" {
		fmt.Printf("interrupted: final checkpoint written to %s; continue with -resume %s\n", ckPath, ckPath)
	} else {
		fmt.Println("interrupted: stopped cleanly at an event boundary (no -checkpoint armed, nothing durable written)")
	}
	os.Exit(130)
}

// runStreaming executes service mode: an open-ended synthesized job
// stream with per-window JSONL metrics, stopped by -stream-horizon or a
// signal.
func runStreaming(opts dare.Options, scfg dare.StreamRunSpec, eventsPath, reportPath string, ck dare.CheckpointSpec) {
	if scfg.Horizon <= 0 && ck.Path == "" {
		fmt.Fprintln(os.Stderr, "dare-sim: stream mode without -stream-horizon runs until ^C; arm -checkpoint to make the run durable")
	}
	eventsFile, reportFile, eventLog, report := openSinks(eventsPath, reportPath)
	opts.EventLog = eventLog
	out, err := dare.RunStream(opts, scfg, report, ck)
	if errors.Is(err, dare.ErrInterrupted) {
		exitInterrupted(ck.Path, eventsFile, reportFile)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream        %s gen, window %.0fs, horizon %.0fs, diurnal amplitude %.2f\n",
		scfg.Gen.Name, scfg.Window, scfg.Horizon, scfg.DiurnalAmplitude)
	fmt.Printf("scheduler     %s\n", out.SchedulerName)
	fmt.Printf("policy        %s\n", out.PolicyName)
	fmt.Println()
	printMetrics(out, false, false, 0)
	closeSinks(eventsFile, reportFile)
	if eventsFile != nil {
		fmt.Printf("\nwrote event trace to %s (%d events: %s)\n", eventsPath, out.EventCounts.Total(), out.EventCounts)
	}
}

// openSuffixSink re-opens a dead process's sink truncated to the byte
// position the checkpoint recorded at the cut, positioned to append the
// post-cut suffix. ok=false means the existing file is shorter than the
// recorded prefix (lost or rewritten) — the caller downgrades to a replay
// resume, which regenerates the whole stream from genesis.
func openSuffixSink(path string, prefix int64) (*os.File, bool) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		fatal(err)
	}
	if st.Size() < prefix {
		f.Close()
		return nil, false
	}
	if err := f.Truncate(prefix); err != nil {
		fatal(err)
	}
	if _, err := f.Seek(prefix, io.SeekStart); err != nil {
		fatal(err)
	}
	return f, true
}

// runResumed continues a killed run from its checkpoint file. In state
// mode the original sinks are truncated to the cut and the post-cut
// suffix appended (O(state) restore); in replay mode — or when a sink's
// prefix went missing — the sinks are rewritten from genesis,
// byte-identically to an uninterrupted run.
func runResumed(path string, stream bool, eventsPath, reportPath string, ck dare.CheckpointSpec, mode dare.ResumeMode) {
	if ck.Path == "" {
		ck.Path = path // keep checkpointing where we resumed from
	}
	info, err := dare.InspectCheckpoint(path)
	if err != nil {
		fatal(err)
	}
	useState := mode == dare.ResumeState
	var eventsFile, reportFile *os.File
	var eventLog, report io.Writer
	if useState {
		if eventsPath != "" {
			f, ok := openSuffixSink(eventsPath, info.EventBytes)
			if !ok {
				fmt.Fprintf(os.Stderr, "dare-sim: %s is shorter than the checkpoint's %d-byte prefix; falling back to a replay resume\n", eventsPath, info.EventBytes)
				useState = false
			} else {
				eventsFile, eventLog = f, f
			}
		}
		if useState && stream && reportPath != "" && reportPath != "-" {
			f, ok := openSuffixSink(reportPath, info.ReportBytes)
			if !ok {
				fmt.Fprintf(os.Stderr, "dare-sim: %s is shorter than the checkpoint's %d-byte prefix; falling back to a replay resume\n", reportPath, info.ReportBytes)
				useState = false
				closeSinks(eventsFile)
				eventsFile, eventLog = nil, nil
			} else {
				reportFile, report = f, f
			}
		}
		if useState && stream && reportPath == "-" {
			report = os.Stdout
		}
	}
	if !useState {
		mode = dare.ResumeReplay
		if stream {
			eventsFile, reportFile, eventLog, report = openSinks(eventsPath, reportPath)
		} else {
			eventsFile, _, eventLog, _ = openSinks(eventsPath, "")
		}
	}
	var out *dare.Output
	if stream {
		out, err = dare.ResumeStreamWithMode(path, eventLog, report, ck, mode)
	} else {
		out, err = dare.ResumeWithMode(path, eventLog, ck, mode)
	}
	if errors.Is(err, dare.ErrInterrupted) {
		exitInterrupted(ck.Path, eventsFile, reportFile)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("resumed       %s (%s mode)\n", path, mode)
	fmt.Printf("scheduler     %s\n", out.SchedulerName)
	fmt.Printf("policy        %s\n", out.PolicyName)
	fmt.Println()
	printMetrics(out, false, false, 0)
	closeSinks(eventsFile, reportFile)
	if eventsFile != nil {
		fmt.Printf("\nwrote event trace to %s (%d events: %s)\n", eventsPath, out.EventCounts.Total(), out.EventCounts)
	}
}

// writeResultsCSV dumps one row per job for external plotting.
func writeResultsCSV(path string, out *dare.Output) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"job", "arrival", "finish", "turnaround", "dedicated", "slowdown", "maps", "local", "rack", "remote", "locality", "remote_bytes"}); err != nil {
		f.Close()
		return err
	}
	for _, r := range out.Results {
		rec := []string{
			strconv.Itoa(r.ID),
			strconv.FormatFloat(r.Arrival, 'f', 3, 64),
			strconv.FormatFloat(r.Finish, 'f', 3, 64),
			strconv.FormatFloat(r.Turnaround, 'f', 3, 64),
			strconv.FormatFloat(r.Dedicated, 'f', 3, 64),
			strconv.FormatFloat(r.Slowdown(), 'f', 4, 64),
			strconv.Itoa(r.NumMaps),
			strconv.Itoa(r.Local),
			strconv.Itoa(r.Rack),
			strconv.Itoa(r.Remote),
			strconv.FormatFloat(r.Locality(), 'f', 4, 64),
			strconv.FormatInt(r.RemoteBytes, 10),
		}
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func profileByName(name string) (*dare.Profile, error) {
	switch name {
	case "cct":
		return dare.CCT(), nil
	case "ec2":
		return dare.EC2(), nil
	case "ec2-20":
		return dare.EC2Small(), nil
	}
	return nil, fmt.Errorf("unknown profile %q (want cct|ec2|ec2-20)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dare-sim:", err)
	os.Exit(1)
}
