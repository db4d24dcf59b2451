// Command workload-gen synthesizes SWIM-style MapReduce job traces shaped
// like the Facebook workloads of §V-A and writes them as CSV, so they can
// be inspected, edited, or replayed with dare-sim via the library API.
//
// Examples:
//
//	workload-gen -workload wl1 > wl1.csv
//	workload-gen -workload wl2 -seed 7 -o wl2.csv
//	workload-gen -jobs 100 -files 40 -zipf 1.3 -o custom.csv
//	workload-gen -validate wl1.csv        # parse + integrity check
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dare"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the CSV to stdout or
// -o (or the -validate report to stdout) and diagnostics to stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workload-gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName   = fs.String("workload", "", "preset: wl1 | wl2 (empty = custom from the flags below)")
		jobs     = fs.Int("jobs", 500, "custom: number of jobs")
		files    = fs.Int("files", 120, "custom: file population size")
		zipfS    = fs.Float64("zipf", 0, "custom: popularity exponent (0 = default)")
		interarr = fs.Float64("interarrival", 0, "custom: mean interarrival seconds (0 = default)")
		large    = fs.Int("large-every", 0, "custom: insert a large job every N jobs (0 = none)")
		seed     = fs.Uint64("seed", 42, "random seed")
		out      = fs.String("o", "", "output file (empty = stdout)")
		validate = fs.String("validate", "", "parse and validate this workload CSV, then exit")
		stats    = fs.Bool("stats", false, "print the workload's descriptive summary to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "workload-gen:", err)
		return 1
	}

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		wl, err := dare.ReadWorkload(f)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: OK — workload %q, %d files, %d jobs, %d map tasks\n",
			*validate, wl.Name, len(wl.Files), len(wl.Jobs), wl.TotalMaps())
		if *stats {
			fmt.Fprint(stdout, wl.Summarize().String())
		}
		return 0
	}

	var wl *dare.Workload
	switch *wlName {
	case "wl1":
		wl = dare.WL1(*seed)
	case "wl2":
		wl = dare.WL2(*seed)
	case "":
		wl = dare.GenerateWorkload(dare.WorkloadConfig{
			Name:             "custom",
			NumJobs:          *jobs,
			NumFiles:         *files,
			ZipfS:            *zipfS,
			MeanInterarrival: *interarr,
			LargeEvery:       *large,
			Seed:             *seed,
		})
	default:
		return fail(fmt.Errorf("unknown workload preset %q (want wl1|wl2 or empty)", *wlName))
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return fail(err)
		}
		defer f.Close() // the success path checks Close below
		w = f
	}
	if err := wl.WriteCSV(w); err != nil {
		return fail(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %s: %d files, %d jobs, %d map tasks\n", *out, len(wl.Files), len(wl.Jobs), wl.TotalMaps())
	}
	if *stats {
		fmt.Fprint(stderr, wl.Summarize().String())
	}
	return 0
}
