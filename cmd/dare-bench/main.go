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
//	dare-bench -list                # available experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"dare"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// aliases expand a whole figure to its panels.
var aliases = map[string][]string{
	"fig8": {"fig8a", "fig8b"},
	"fig9": {"fig9a", "fig9b"},
}

// run is the whole command: it parses args, prints the selected
// experiments to stdout and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dare-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "all", "experiment id, or 'all'")
		jobs     = fs.Int("jobs", 0, "jobs per run (0 = the paper's 500)")
		seed     = fs.Uint64("seed", 42, "random seed")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		busStats = fs.Bool("events", false, "print per-kind cluster bus event counts after each experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile after the selected experiments to this file")

		mttf        = fs.Float64("mttf", 0, "churn: per-node mean time to failure in sim seconds (0 = auto-scale)")
		mttr        = fs.Float64("mttr", 0, "churn: mean time to repair in sim seconds (0 = auto-scale)")
		rackProb    = fs.Float64("rack-fail-prob", 0, "churn: probability a failure takes a whole rack (0 = default)")
		check       = fs.Bool("check", false, "churn/chaos/failover/availability: run the invariant checker after every injected event")
		chaosEvents = fs.Int("chaos-events", 0, "chaos: number of injections to draw (0 = default 16)")
		policyFiles = fs.String("policy-file", "", "policy: comma-separated policy config files (JSON PolicySpec) added as extra sweep arms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	dare.SetParallelism(*parallel)
	params := dare.ExperimentParams{
		Jobs:  *jobs,
		Seed:  *seed,
		Churn: dare.ChurnSpec{MTTF: *mttf, MTTR: *mttr, RackFailProb: *rackProb},
		Chaos: dare.ChaosSpec{Events: *chaosEvents},
		Check: *check,
	}
	if *policyFiles != "" {
		for _, path := range strings.Split(*policyFiles, ",") {
			params.PolicyFiles = append(params.PolicyFiles, strings.TrimSpace(path))
		}
	}

	exps := dare.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	selected, ok := selectExperiments(exps, *expID)
	if !ok {
		var known []string
		for _, e := range exps {
			known = append(known, e.ID)
		}
		sort.Strings(known)
		fmt.Fprintf(stderr, "dare-bench: unknown experiment %q; known: %s\n", *expID, strings.Join(known, ", "))
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "dare-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "dare-bench: -cpuprofile: %v\n", err)
			return 1
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
				fmt.Fprintf(stderr, "dare-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "dare-bench: -memprofile: %v\n", err)
			}
		}()
	}

	// One SIGINT/SIGTERM finishes the experiment in flight and runs the
	// deferred profile writers; a second one exits immediately.
	var stop atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigCh:
		case <-done:
			return
		}
		stop.Store(true)
		fmt.Fprintln(stderr, "dare-bench: interrupt received; finishing the current experiment (^C again to exit now)")
		select {
		case <-sigCh:
			os.Exit(1)
		case <-done:
		}
	}()

	for _, e := range selected {
		if stop.Load() {
			fmt.Fprintf(stderr, "dare-bench: interrupted; skipping %s and later experiments\n", e.ID)
			break
		}
		fmt.Fprintf(stdout, "=== %s — %s ===\n", e.ID, e.Title)
		busBefore := dare.TotalBusEvents()
		t, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(stderr, "dare-bench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, t.Render())
		if *busStats {
			bus := dare.TotalBusEvents()
			for k, v := range busBefore {
				bus[k] -= v
			}
			fmt.Fprintf(stdout, "bus events: %d (%s)\n\n", bus.Total(), bus)
		}
	}
	return 0
}

// selectExperiments resolves -exp: "all", an alias, or one id.
func selectExperiments(exps []dare.Experiment, id string) ([]dare.Experiment, bool) {
	if id == "all" {
		return exps, true
	}
	byID := make(map[string]dare.Experiment, len(exps))
	for _, e := range exps {
		byID[e.ID] = e
	}
	if targets, ok := aliases[id]; ok {
		var sel []dare.Experiment
		for _, t := range targets {
			sel = append(sel, byID[t])
		}
		return sel, true
	}
	e, ok := byID[id]
	return []dare.Experiment{e}, ok
}
