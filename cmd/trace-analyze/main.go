// Command trace-analyze characterizes a file-access trace the way §III of
// the paper characterizes the Yahoo! production logs, producing the series
// behind Figs. 2–5: popularity-vs-rank, age-at-access CDF, and the
// burst-window distributions (weekly and in-day).
//
// With no -in flag it generates a synthetic Yahoo!-shaped log; pass
// -in <file.csv> (format: see internal/trace WriteCSV) to analyze real
// audit data converted to the same shape, and -gen-out to save the
// synthetic log for inspection.
//
// A second mode, -events <file.jsonl>, summarizes a cluster event trace
// captured with dare-sim -events: per-kind volume, the map-launch locality
// split, and replica churn over the run.
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

// run is the whole command: it parses args, prints the analysis to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input access-log CSV (empty = generate synthetic)")
		genOut   = fs.String("gen-out", "", "write the generated synthetic log to this CSV file")
		files    = fs.Int("files", 1000, "synthetic: file population size")
		accesses = fs.Int("accesses", 200000, "synthetic: number of access events")
		zipfS    = fs.Float64("zipf", 1.1, "synthetic: popularity exponent")
		sysFiles = fs.Bool("system-files", false, "synthetic: include job.jar/job.xml-style system files (M45-like age CDF, §III)")
		seed     = fs.Uint64("seed", 42, "synthetic: random seed")
		events   = fs.String("events", "", "summarize a cluster event trace (JSONL from dare-sim -events) instead of an access log")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	if *events != "" {
		err = analyzeEvents(stdout, *events)
	} else {
		err = analyzeLog(stdout, *in, *genOut, dare.AuditLogConfig{
			Files:              *files,
			Accesses:           *accesses,
			ZipfS:              *zipfS,
			IncludeSystemFiles: *sysFiles,
			Seed:               *seed,
		})
	}
	if err != nil {
		fmt.Fprintln(stderr, "trace-analyze:", err)
		return 1
	}
	return 0
}

// analyzeLog prints the Figs. 2–5 series of the access log at in, or of
// a synthetic log from cfg (saved to genOut when set) when in is empty.
func analyzeLog(stdout io.Writer, in, genOut string, cfg dare.AuditLogConfig) error {
	var log *dare.AuditLog
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if log, err = dare.ReadAuditLog(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "analyzing %s: %d files, %d accesses, horizon %.0f h\n\n", in, len(log.Files), len(log.Accesses), log.Horizon/3600)
	} else {
		log = dare.GenerateAuditLog(cfg)
		fmt.Fprintf(stdout, "synthetic Yahoo!-shaped log: %d files, %d accesses, one week\n\n", len(log.Files), len(log.Accesses))
		if genOut != "" {
			f, err := os.Create(genOut)
			if err != nil {
				return err
			}
			if err := log.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", genOut)
		}
	}

	fmt.Fprintln(stdout, "--- Fig. 2: file popularity (accesses per file by rank) ---")
	fmt.Fprintln(stdout, dare.RenderRanks(dare.Fig2Ranks(log)))

	fmt.Fprintln(stdout, "--- Fig. 3: CDF of file age at time of access ---")
	fmt.Fprintln(stdout, dare.RenderAgeCDF(dare.Fig3AgeCDF(log)))

	fmt.Fprintln(stdout, "--- Fig. 4: smallest windows holding 80% of accesses (week) ---")
	w4, err := dare.Fig4Windows(log)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, dare.RenderWindows(w4))

	fmt.Fprintln(stdout, "--- Fig. 5: smallest windows holding 80% of accesses (day 2) ---")
	w5, err := dare.Fig5Windows(log)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, dare.RenderWindows(w5))

	fmt.Fprintln(stdout, "--- Diurnal access profile (hour of day) ---")
	fmt.Fprintln(stdout, dare.RenderHourlyProfile(dare.HourlyProfile(log)))
	return nil
}

// analyzeEvents prints the per-kind summary of the JSONL event trace at
// path.
func analyzeEvents(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, skipped, err := dare.ReadEventLogSkipped(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "--- cluster event trace: %s ---\n", path)
	if skipped > 0 {
		fmt.Fprintf(stdout, "(skipped %d lines with event kinds this build does not know)\n", skipped)
	}
	fmt.Fprintln(stdout, dare.RenderTraceStats(dare.SummarizeEvents(evs)))
	return nil
}
