// Command dare-bench regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports (see EXPERIMENTS.md for the paper-vs-measured record).
//
// Examples:
//
//	dare-bench                      # everything, full 500-job scale
//	dare-bench -exp fig7            # one experiment
//	dare-bench -exp fig9 -jobs 200  # scaled down
//	dare-bench -parallel 8          # bound concurrent simulations
//	dare-bench -exp fig7 -json      # also write BENCH_fig7.json (perf record)
//	dare-bench -list                # available experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dare"
)

type experiment struct {
	id    string
	title string
	run   func(jobs int, seed uint64) (string, error)
}

// Churn-experiment tuning knobs, read by the "churn" closure after
// flag.Parse has run. Zero falls back to DefaultChurnSpec's scaling.
var (
	churnMTTF     = flag.Float64("mttf", 0, "churn: per-node mean time to failure in sim seconds (0 = auto-scale)")
	churnMTTR     = flag.Float64("mttr", 0, "churn: mean time to repair in sim seconds (0 = auto-scale)")
	churnRackProb = flag.Float64("rack-fail-prob", 0, "churn: probability a failure takes a whole rack (0 = default)")
	churnCheck    = flag.Bool("check", false, "churn/chaos: run the invariant checker after every injected event")
	chaosEvents   = flag.Int("chaos-events", 0, "chaos: number of injections to draw (0 = default 16)")
	policyFiles   = flag.String("policy-file", "", "policy: comma-separated policy config files (JSON PolicySpec) added as extra sweep arms")
)

func experiments() []experiment {
	return []experiment{
		{"table1", "Table I: all-to-all ping RTTs (ms)", func(jobs int, seed uint64) (string, error) {
			return dare.TableI(5, seed, dare.CCT(), dare.EC2Small()), nil
		}},
		{"table2", "Table II: disk and network bandwidth (MB/s)", func(jobs int, seed uint64) (string, error) {
			out := dare.TableII(50, seed, dare.CCT(), dare.EC2())
			out += fmt.Sprintf("\nnet/disk bandwidth ratio: CCT %.3f, EC2 %.3f (§II-B: lower ratio => locality pays off more)\n",
				dare.BandwidthRatio(dare.CCT(), 200, seed), dare.BandwidthRatio(dare.EC2(), 200, seed))
			return out, nil
		}},
		{"table3", "Table III: configuration of the test clusters", func(jobs int, seed uint64) (string, error) {
			return dare.TableIII(dare.CCT(), dare.EC2()), nil
		}},
		{"fig1", "Fig. 1: hop-count distribution, 20-node EC2 cluster", func(jobs int, seed uint64) (string, error) {
			return dare.Fig1(dare.EC2Small(), seed), nil
		}},
		{"fig2", "Fig. 2: file popularity vs rank (plain and block-weighted)", func(jobs int, seed uint64) (string, error) {
			l := dare.GenerateAuditLog(dare.AuditLogConfig{Seed: seed})
			return dare.RenderRanks(dare.Fig2Ranks(l)), nil
		}},
		{"fig3", "Fig. 3: CDF of file age at access", func(jobs int, seed uint64) (string, error) {
			l := dare.GenerateAuditLog(dare.AuditLogConfig{Seed: seed})
			return dare.RenderAgeCDF(dare.Fig3AgeCDF(l)), nil
		}},
		{"fig4", "Fig. 4: 80%-coverage window sizes over the week", func(jobs int, seed uint64) (string, error) {
			l := dare.GenerateAuditLog(dare.AuditLogConfig{Seed: seed})
			res, err := dare.Fig4Windows(l)
			if err != nil {
				return "", err
			}
			return dare.RenderWindows(res), nil
		}},
		{"fig5", "Fig. 5: 80%-coverage window sizes within day 2", func(jobs int, seed uint64) (string, error) {
			l := dare.GenerateAuditLog(dare.AuditLogConfig{Seed: seed})
			res, err := dare.Fig5Windows(l)
			if err != nil {
				return "", err
			}
			return dare.RenderWindows(res), nil
		}},
		{"fig6", "Fig. 6: access pattern (CDF) used in the experiments", func(jobs int, seed uint64) (string, error) {
			var b strings.Builder
			fmt.Fprintf(&b, "%8s %12s\n", "rank", "cumulative")
			for _, pt := range dare.Fig6Points(120, 0) {
				if int(pt.X)%10 == 1 || pt.X <= 10 {
					fmt.Fprintf(&b, "%8.0f %12.3f\n", pt.X, pt.P)
				}
			}
			return b.String(), nil
		}},
		{"fig7", "Fig. 7: locality / GMTT / slowdown, 20-node CCT", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig7(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderPerf(rows), nil
		}},
		{"fig8a", "Fig. 8a: sensitivity to ElephantTrap probability p", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig8P(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderSens(rows), nil
		}},
		{"fig8b", "Fig. 8b: sensitivity to the aging threshold", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig8Threshold(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderSens(rows), nil
		}},
		{"fig9a", "Fig. 9a: sensitivity to the budget (greedy LRU)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig9LRU(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderSens(rows), nil
		}},
		{"fig9b", "Fig. 9b: sensitivity to the budget (ElephantTrap)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig9ET(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderSens(rows), nil
		}},
		{"fig10", "Fig. 10: locality / GMTT / slowdown, 100-node EC2", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig10(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderPerf(rows), nil
		}},
		{"fig11", "Fig. 11: uniformity of replica placement (cv of PI)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Fig11(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderFig11(rows), nil
		}},
		{"ablation-writes", "Ablation: ElephantTrap vs LRU disk writes (§I claim)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.AblationWrites(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderWrites(rows), nil
		}},
		{"ablation-maptime", "Ablation: map completion time reduction (§V-C claim)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.AblationMapTime(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderMapTime(rows), nil
		}},
		{"adaptation", "Adaptation: reactive DARE vs epoch-based Scarlett under a popularity shift (§VI claim)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Adaptation(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderAdaptation(rows), nil
		}},
		{"availability", "Availability: data readable after node failures, with and without DARE (§IV-B claim)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.Availability(jobs, 4, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderAvailability(rows), nil
		}},
		{"churn", "Churn: weighted availability, repair backlog, and slowdown under stochastic failures/recoveries (§IV-B claim)", func(jobs int, seed uint64) (string, error) {
			spec := dare.ChurnSpec{MTTF: *churnMTTF, MTTR: *churnMTTR, RackFailProb: *churnRackProb}
			rows, err := dare.ChurnStudy(jobs, seed, spec, *churnCheck)
			if err != nil {
				return "", err
			}
			return dare.RenderChurn(rows), nil
		}},
		{"chaos", "Chaos: turnaround, locality, and availability under mixed gray failures (crashes, slow nodes, corruption, flaps)", func(jobs int, seed uint64) (string, error) {
			spec := dare.ChaosSpec{Events: *chaosEvents}
			rows, err := dare.ChaosStudy(jobs, seed, spec, *churnCheck)
			if err != nil {
				return "", err
			}
			return dare.RenderChaos(rows), nil
		}},
		{"failover", "Failover: master crash/recovery cost, journal replay vs block-report warming (A17)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.FailoverStudy(jobs, seed, *churnCheck)
			if err != nil {
				return "", err
			}
			failoverRows = rows
			return dare.RenderFailover(rows), nil
		}},
		{"speculation", "Speculation: DARE composed with backup tasks on the noisy EC2 profile", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.SpeculationStudy(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderSpeculation(rows), nil
		}},
		{"eviction", "Eviction profile: LRU vs LFU vs ElephantTrap at a binding budget (§IV design space)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.EvictionStudy(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderEviction(rows), nil
		}},
		{"audit-replay", "Audit replay: the §III access process driven through the full cluster", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.AuditReplay(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderAuditReplay(rows), nil
		}},
		{"output-bound", "Output-bound split: replication cannot expedite output processing (§V-C)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.OutputBound(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderOutputBound(rows), nil
		}},
		{"delay-sweep", "Delay-scheduling patience sweep: DARE halves the waiting the fair scheduler needs (§VI)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.DelaySweep(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderDelaySweep(rows), nil
		}},
		{"balance", "Byte balance vs popularity balance: the HDFS balancer cannot do DARE's job (Fig. 11 context)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.BalanceStudy(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderBalance(rows), nil
		}},
		{"uniform", "Uniform replication factors vs adaptive replication (§III premise)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.UniformVsAdaptive(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderUniform(rows), nil
		}},
		{"events", "Event spine: per-kind cluster bus event volume across the policy arms", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.EventStudy(jobs, seed)
			if err != nil {
				return "", err
			}
			return dare.RenderEvents(rows), nil
		}},
		{"checkpoint", "Checkpoint: durable-run overhead, crash-recovery cost, and the replay-vs-state resume ladder (A19/A20)", func(jobs int, seed uint64) (string, error) {
			rows, err := dare.CheckpointStudy(jobs, seed)
			if err != nil {
				return "", err
			}
			checkpointRows = rows
			ladder, err := dare.ResumeLadder(seed)
			if err != nil {
				return "", err
			}
			resumeLadderRows = ladder
			return dare.RenderCheckpoint(rows) + "\n" + dare.RenderResumeLadder(ladder), nil
		}},
		{"policy", "Policy arms: every built-in policy plus -policy-file config arms on one bench (A18)", func(jobs int, seed uint64) (string, error) {
			var extra []*dare.PolicySet
			if *policyFiles != "" {
				for _, path := range strings.Split(*policyFiles, ",") {
					set, err := dare.LoadPolicy(strings.TrimSpace(path))
					if err != nil {
						return "", err
					}
					extra = append(extra, set)
				}
			}
			rows, err := dare.PolicySweep(jobs, seed, extra)
			if err != nil {
				return "", err
			}
			policyRows = rows
			return dare.RenderPolicySweep(rows), nil
		}},
	}
}

// failoverRows holds the failover experiment's per-arm measurements for
// BENCH_failover.json.
var failoverRows []dare.FailoverRow

// policyRows holds the policy sweep's per-arm measurements for
// BENCH_policy.json.
var policyRows []dare.PolicyArmRow

// checkpointRows holds the checkpoint study's per-arm measurements for
// BENCH_checkpoint.json; resumeLadderRows the resume-scaling ladder's.
var checkpointRows []dare.CheckpointRow
var resumeLadderRows []dare.ResumeLadderRow

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id, or 'all'")
		jobs     = flag.Int("jobs", 0, "jobs per run (0 = the paper's 500)")
		seed     = flag.Uint64("seed", 42, "random seed")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "write BENCH_<exp>.json perf records (wall-clock, events/sec)")
		jsonDir  = flag.String("json-dir", ".", "directory for -json output files")
		busStats = flag.Bool("events", false, "print per-kind cluster bus event counts after each experiment")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile after the selected experiments to this file")
	)
	flag.Parse()
	dare.SetParallelism(*parallel)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dare-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dare-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dare-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dare-bench: -memprofile: %v\n", err)
			}
		}()
	}

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-18s %s\n", e.id, e.title)
		}
		return
	}

	ids := map[string]experiment{}
	for _, e := range exps {
		ids[e.id] = e
	}
	// Aliases for whole figures.
	aliasTargets := map[string][]string{
		"fig8": {"fig8a", "fig8b"},
		"fig9": {"fig9a", "fig9b"},
	}

	var selected []experiment
	switch {
	case *expID == "all":
		selected = exps
	default:
		if targets, ok := aliasTargets[*expID]; ok {
			for _, id := range targets {
				selected = append(selected, ids[id])
			}
		} else if e, ok := ids[*expID]; ok {
			selected = []experiment{e}
		} else {
			var known []string
			for id := range ids {
				known = append(known, id)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "dare-bench: unknown experiment %q; known: %s\n", *expID, strings.Join(known, ", "))
			os.Exit(1)
		}
	}

	// One SIGINT/SIGTERM finishes the experiment in flight, writes its
	// -json record, and runs the deferred profile writers; a second one
	// exits immediately.
	var stop atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		stop.Store(true)
		fmt.Fprintln(os.Stderr, "dare-bench: interrupt received; finishing the current experiment (^C again to exit now)")
		<-sigCh
		os.Exit(1)
	}()

	for _, e := range selected {
		if stop.Load() {
			fmt.Fprintf(os.Stderr, "dare-bench: interrupted; skipping %s and later experiments\n", e.id)
			break
		}
		fmt.Printf("=== %s — %s ===\n", e.id, e.title)
		eventsBefore := dare.TotalEventsProcessed()
		busBefore := dare.TotalBusEvents()
		start := time.Now()
		out, err := e.run(*jobs, *seed)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dare-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		busDelta := dare.TotalBusEvents()
		for k, v := range busBefore {
			busDelta[k] -= v
		}
		if *busStats {
			fmt.Printf("bus events: %d (%s)\n\n", busDelta.Total(), busDelta)
		}
		if *jsonOut {
			path, err := writeBenchJSON(*jsonDir, e, *jobs, *seed, elapsed,
				dare.TotalEventsProcessed()-eventsBefore, busDelta)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dare-bench: %s: %v\n", e.id, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}

// benchRecord is the machine-readable perf record of one experiment run,
// used to track the wall-clock trajectory of the sweeps across changes.
type benchRecord struct {
	Exp         string  `json:"exp"`
	Title       string  `json:"title"`
	Jobs        int     `json:"jobs"` // 0 = the paper's 500
	Seed        uint64  `json:"seed"`
	Parallelism int     `json:"parallelism"`
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of simulation events processed by every run the
	// experiment performed; EventsPerSec is the resulting throughput.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// BusEvents breaks down the cluster bus traffic the experiment published,
	// keyed by event kind (zero-count kinds are omitted).
	BusEvents map[string]uint64 `json:"bus_events,omitempty"`
	// Failover carries the per-arm recovery measurements when the
	// experiment is the control-plane failover study (journal-vs-report
	// record).
	Failover []dare.FailoverRow `json:"failover,omitempty"`
	// Policy carries the per-arm results when the experiment is the
	// policy-file sweep.
	Policy []dare.PolicyArmRow `json:"policy,omitempty"`
	// Checkpoint carries the per-arm results when the experiment is the
	// checkpoint-overhead study; ResumeLadder its replay-vs-state
	// resume-scaling rungs.
	Checkpoint   []dare.CheckpointRow   `json:"checkpoint,omitempty"`
	ResumeLadder []dare.ResumeLadderRow `json:"resume_ladder,omitempty"`
}

// writeBenchJSON records one experiment's perf numbers as BENCH_<exp>.json.
func writeBenchJSON(dir string, e experiment, jobs int, seed uint64, elapsed time.Duration, events uint64, bus dare.EventCounts) (string, error) {
	if jobs == 0 {
		jobs = 500 // the -jobs default: experiments run the paper's full 500-job traces
	}
	rec := benchRecord{
		Exp:         e.id,
		Title:       e.title,
		Jobs:        jobs,
		Seed:        seed,
		Parallelism: dare.Parallelism(),
		WallSeconds: elapsed.Seconds(),
		Events:      events,
		BusEvents:   bus.Map(),
	}
	if e.id == "failover" {
		rec.Failover = failoverRows
	}
	if e.id == "policy" {
		rec.Policy = policyRows
	}
	if e.id == "checkpoint" {
		rec.Checkpoint = checkpointRows
		rec.ResumeLadder = resumeLadderRows
	}
	if s := elapsed.Seconds(); s > 0 {
		rec.EventsPerSec = float64(events) / s
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", dir, e.id)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
