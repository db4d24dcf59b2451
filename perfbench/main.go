// Command perfbench is the simulator's benchmark: it runs one workload
// (paper-grid, scale-10k or fault-durable) for a fixed time, checks that
// every simulated output is correct, and prints one JSON result line.
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 a
// traced run wired with timing wrappers reports per-layer metrics. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-grid, scale-10k or fault-durable")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed uint64, seconds float64, trace bool) (*result, error) {
	def, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	b, err := newBench(def, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.warmUp(); err != nil {
		return nil, err
	}
	var m map[string]metric
	if trace {
		m = b.perLayer()
	} else {
		m = b.endToEnd()
	}
	return &result{
		Correct:   b.g.failed == 0,
		Attempted: b.g.attempted,
		Failed:    b.g.failed,
		Metrics:   m,
	}, nil
}
