package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dare/internal/event"
	"dare/internal/runner"
	"dare/internal/snapshot"
)

// setupReps is how many times a run generates its inputs; setup_s is the
// median. Set-up takes milliseconds, so repeating it is cheap.
const setupReps = 15

// minPasses is the fewest timed passes (or traced iterations) a run makes,
// however short --seconds is.
const minPasses = 3

// armRef is what the warm-up fixes for one arm: every later run of the
// arm must reproduce its digests.
type armRef struct {
	output string // Output JSON digest
	events string // fault-durable: JSONL event-trace digest
	every  uint64 // fault-durable: checkpoint cadence, in processed events
	ckpts  int    // fault-durable: checkpoints one armed run writes
	tasks  int    // completed map and reduce tasks
}

// bench is one benchmark run of one workload.
type bench struct {
	def     workloadDef
	seed    uint64
	seconds float64
	g       gate

	in          *inputs
	setupS      []float64
	genS, loadS []float64
	ref         []armRef

	dir       string      // fault-durable: checkpoint directory
	sink      *traceSink  // fault-durable: event trace of the latest run
	raised    atomic.Bool // interrupt line of the restore-only resumes
	resumeS   []float64   // restore-only resume latencies
	loadFileS []float64   // snapshot.LoadFile latencies
	ckptBytes []float64   // sizes of the kept checkpoints
}

func newBench(def workloadDef, seed uint64, seconds float64) (*bench, error) {
	b := &bench{def: def, seed: seed, seconds: seconds}
	b.raised.Store(true)
	for i := 0; i < setupReps; i++ {
		var in *inputs
		var err error
		s := timed(func() { in, err = def.setup(seed) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.in = in
		b.setupS = append(b.setupS, s)
		b.genS = append(b.genS, in.genS)
		b.loadS = append(b.loadS, in.loadS)
	}
	if def.durable {
		// The checkpoints go next to the benchmark binary, which lives in
		// the checkout's build directory.
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("checkpoint directory: %w", err)
		}
		if b.dir, err = os.MkdirTemp(filepath.Dir(exe), "ckpt-"); err != nil {
			return nil, fmt.Errorf("checkpoint directory: %w", err)
		}
	}
	return b, nil
}

func (b *bench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

func (b *bench) ckptPath() string      { return filepath.Join(b.dir, "run.ckpt") }
func (b *bench) keptPath(k int) string { return filepath.Join(b.dir, fmt.Sprintf("kept-%d.ckpt", k)) }
func (b *bench) resumePath() string    { return filepath.Join(b.dir, "resume.ckpt") }

// opts returns arm i's options, with the event trace going to a fresh
// in-memory sink for fault-durable.
func (b *bench) opts(i int) runner.Options {
	opts := b.in.arms[i].opts
	if b.def.durable {
		b.sink = newTraceSink(0)
		opts.EventLog = b.sink
	}
	return opts
}

// warmUp runs every arm once, untimed, to fix the references later runs
// are checked against. At defaultSeed the references must match the
// committed digests. For fault-durable it also makes one armed run per
// arm and resumes its middle checkpoint to completion.
func (b *bench) warmUp() error {
	var outputs, events bytes.Buffer
	for i, a := range b.in.arms {
		opts := b.opts(i)
		runtime.GC()
		out, err := runner.Run(opts)
		if !b.g.check(a.label, err) {
			return fmt.Errorf("warm-up run %s failed", a.label)
		}
		d, err := outputDigest(out)
		if err != nil {
			return err
		}
		ref := armRef{output: d, tasks: completedTasks(out)}
		if b.def.durable {
			ref.events = b.sink.sum()
			ref.every = out.EventsProcessed/4 + 1
		}
		b.ref = append(b.ref, ref)
		outputs.WriteString(ref.output)
		events.WriteString(ref.events)
		if b.def.durable {
			if err := b.durableWarmUp(i); err != nil {
				return err
			}
		}
	}
	if b.seed != defaultSeed {
		return nil
	}
	committed, err := committedDigests()
	if err != nil {
		return err
	}
	want := committed[b.def.name]
	b.g.check("committed output digest", sameDigest("output", digest(outputs.Bytes()), want.Output))
	if b.def.durable {
		b.g.check("committed event-trace digest", sameDigest("event trace", digest(events.Bytes()), want.Events))
	}
	return nil
}

// durableWarmUp makes one armed run of arm i, which must write at least
// one checkpoint carrying a state image, and resumes the middle checkpoint
// to completion: the resumed Output must equal the unarmed run's, and the
// resumed trace suffix must equal the unarmed trace from the cut on.
func (b *bench) durableWarmUp(i int) error {
	_, n := b.armed(i)
	if n == 0 {
		return fmt.Errorf("armed warm-up run of %s wrote no checkpoint", b.in.arms[i].label)
	}
	b.ref[i].ckpts = n
	mid := b.keptPath((n + 1) / 2)
	info, err := runner.InspectCheckpoint(mid)
	if err == nil && !info.StateResumable {
		err = errors.New("checkpoint carries no state image")
	}
	if !b.g.check("inspect checkpoint", err) {
		return nil
	}
	suffix := newTraceSink(0)
	out, err := runner.ResumeWithMode(mid, suffix, runner.CheckpointSpec{Path: b.resumePath()}, runner.ResumeState)
	if !b.g.checkOutput("full state resume", out, err, b.ref[i].output) {
		return nil
	}
	opts := b.in.arms[i].opts
	want := newTraceSink(info.EventBytes)
	opts.EventLog = want
	out, err = runner.Run(opts)
	if b.g.checkOutput(b.in.arms[i].label, out, err, b.ref[i].output) {
		b.g.check("resumed event trace", sameDigest("event trace suffix", suffix.sum(), want.sum()))
	}
	return nil
}

// checkRun records one simulation of arm i against its reference; for
// fault-durable the run's event trace went to b.sink.
func (b *bench) checkRun(what string, i int, out *runner.Output, err error) bool {
	if !b.g.checkOutput(what, out, err, b.ref[i].output) {
		return false
	}
	if b.def.durable {
		return b.g.check(what+" event trace", sameDigest("event trace", b.sink.sum(), b.ref[i].events))
	}
	return true
}

// plain runs arm i through runner.Run in a timed region.
func (b *bench) plain(i int) sample {
	opts := b.opts(i)
	r := startRegion()
	out, err := runner.Run(opts)
	s := r.stop()
	b.checkRun(b.in.arms[i].label, i, out, err)
	return s
}

// traced runs arm i through tracedRun in a timed region; its Output must
// equal runner.Run's byte for byte.
func (b *bench) traced(i int, t *tracer) (sample, *runner.Output) {
	opts := b.opts(i)
	r := startRegion()
	out, err := tracedRun(opts, t)
	s := r.stop()
	if !b.checkRun("traced "+b.in.arms[i].label, i, out, err) {
		return s, nil
	}
	return s, out
}

// armed makes one checkpointed run of arm i in a timed region, keeping
// every checkpoint it writes, and returns how many it wrote.
func (b *bench) armed(i int) (sample, int) {
	opts := b.opts(i)
	n := 0
	r := startRegion()
	out, err := runner.RunCheckpointed(opts, runner.CheckpointSpec{
		Path:  b.ckptPath(),
		Every: b.ref[i].every,
		AfterCheckpoint: func(k int) error {
			n = k
			return os.Rename(b.ckptPath(), b.keptPath(k))
		},
	})
	s := r.stop()
	label := "armed " + b.in.arms[i].label
	b.checkRun(label, i, out, err)
	for k := 1; k <= max(n, b.ref[i].ckpts); k++ {
		var err error
		if k > n {
			err = errors.New("not written")
		}
		b.g.check(fmt.Sprintf("%s checkpoint %d", label, k), err)
	}
	return s, n
}

// resume resumes each of the n kept checkpoints in state mode with the
// interrupt line already raised, so each returns ErrInterrupted right
// after load, decode and verify (and the interrupt checkpoint the runner
// then flushes). Each resume is its own timed region.
func (b *bench) resume(n int) []sample {
	var samples []sample
	for k := 1; k <= n; k++ {
		r := startRegion()
		_, err := runner.ResumeWithMode(b.keptPath(k), io.Discard,
			runner.CheckpointSpec{Path: b.resumePath(), Interrupt: &b.raised}, runner.ResumeState)
		s := r.stop()
		samples = append(samples, s)
		b.resumeS = append(b.resumeS, s.wall)
		if errors.Is(err, runner.ErrInterrupted) {
			err = nil
		} else if err == nil {
			err = errors.New("ran past the raised interrupt")
		}
		b.g.check(fmt.Sprintf("restore-only resume %d", k), err)
	}
	return samples
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd runs passes over every arm until the run's time is up and
// reports the user-visible figures. The cost of a pass is the sum over its
// timed regions (each arm's run and, for fault-durable, each of its
// resumes) of that region's cheapest repetition. Timing noise on a shared host only
// ever adds: the memory-bound simulator runs up to 1.7x slower for seconds
// at a time while a pure-CPU loop does not. Cycling through the arms
// spreads each region's repetitions across the whole run, so every region
// gets its chance at a quiet window.
func (b *bench) endToEnd() map[string]metric {
	var regions [][]sample // per timed region, its repetitions
	start := time.Now()
	for passes := 0; passes < minPasses || time.Since(start).Seconds() < b.seconds; passes++ {
		var reps []sample
		for i := range b.in.arms {
			if !b.def.durable {
				reps = append(reps, b.plain(i))
				continue
			}
			s, n := b.armed(i)
			reps = append(append(reps, s), b.resume(n)...)
		}
		for len(regions) < len(reps) {
			regions = append(regions, nil)
		}
		for r, s := range reps {
			regions[r] = append(regions[r], s)
		}
	}
	var pass sample
	for _, reps := range regions {
		pass.add(cheapest(reps))
	}
	tasks := 0.0
	for _, r := range b.ref {
		tasks += float64(r.tasks)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes of %d runs, %.0f tasks each\n", b.def.name, len(regions[0]), len(b.ref), tasks)
	return map[string]metric{
		"setup_s":         {median(b.setupS), "s"},
		"cpu_s":           {pass.cpu, "s"},
		"wall_s":          {pass.wall, "s"},
		"tasks_per_cpu_s": {tasks / pass.cpu, "1/s"},
		"allocs_per_task": {float64(pass.allocs) / tasks, "count"},
		"peak_rss_mb":     {peakRSSMB(), "MiB"},
	}
}

// traceIter is one iteration of the traced run: every arm untraced and
// traced, back to back.
type traceIter struct {
	untraced, traced sample
	t                *tracer
	counts           passCounts
}

// passCounts are the work counts of a pass, read from its Outputs.
type passCounts struct {
	replicas, evictions, events, repairs int64
	launches, tasks, hedged, retries     int64
}

func (c *passCounts) add(out *runner.Output) {
	c.replicas += out.PolicyStats.ReplicasCreated
	c.evictions += out.PolicyStats.Evictions
	c.events += int64(out.EventsProcessed)
	c.repairs += int64(out.RepairsDone)
	c.launches += int64(out.EventCounts[event.TaskLaunch])
	c.tasks += int64(completedTasks(out))
	c.hedged += int64(out.Gray.HedgedReads)
	c.retries += int64(out.Gray.ReadRetries)
}

// perLayer makes traced iterations until the run's time is up and reports
// the layer figures of the median iteration (by traced CPU), so that its
// spans and unattributed_s add up to its traced CPU. Fault-durable
// iterations also make each arm's armed run, its restore-only resumes,
// and a snapshot.LoadFile of each kept checkpoint.
func (b *bench) perLayer() map[string]metric {
	var iters []traceIter
	var armedCPU, plainCPU []float64
	start := time.Now()
	for len(iters) < minPasses || time.Since(start).Seconds() < b.seconds {
		it := traceIter{t: newTracer()}
		var armedS sample
		for i := range b.in.arms {
			it.untraced.add(b.plain(i))
			ts, out := b.traced(i, it.t)
			it.traced.add(ts)
			if out != nil {
				it.counts.add(out)
			}
			if b.def.durable {
				as, n := b.armed(i)
				armedS.add(as)
				b.resume(n)
				b.loadKept(n)
			}
		}
		iters = append(iters, it)
		armedCPU = append(armedCPU, armedS.cpu)
		plainCPU = append(plainCPU, it.untraced.cpu)
	}
	m := layerMetrics(medianIter(iters))
	m["workload.gen_s"] = metric{median(b.genS), "s"}
	m["policy.load_s"] = metric{median(b.loadS), "s"}
	ckpts := 0
	for _, r := range b.ref {
		ckpts += r.ckpts
	}
	var write, load, resume, mb float64
	if ckpts > 0 {
		// Both minima: timing noise only ever adds.
		write = (minimum(armedCPU) - minimum(plainCPU)) / float64(ckpts)
		load = median(b.loadFileS)
		resume = median(b.resumeS)
		mb = median(b.ckptBytes) / (1 << 20)
	}
	m["snapshot.write_s"] = metric{write, "s"}
	m["snapshot.load_s"] = metric{load, "s"}
	m["runner.restore_s"] = metric{resume - load, "s"}
	m["resume_s"] = metric{resume, "s"}
	m["resume.samples"] = metric{float64(len(b.resumeS)), "count"}
	m["ckpt_mb"] = metric{mb, "MiB"}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d traced iterations of %d runs\n", b.def.name, len(iters), len(b.ref))
	return m
}

// layerMetrics reports one traced iteration: the self time of every
// layer, the work counts, and the traced CPU that the spans and
// unattributed_s add up to.
func layerMetrics(it traceIter) map[string]metric {
	t, c := it.t, it.counts
	m := map[string]metric{
		"scheduler.offers":               {float64(t.offers), "count"},
		"scheduler.launch_ratio":         {ratio(t.launches, t.offers), "ratio"},
		"core.replicas_created":          {float64(c.replicas), "count"},
		"core.evictions":                 {float64(c.evictions), "count"},
		"event.published":                {float64(t.published), "count"},
		"sim.events":                     {float64(c.events), "count"},
		"dfs.repairs":                    {float64(c.repairs), "count"},
		"mapreduce.useful_attempt_ratio": {ratio(c.tasks, c.launches), "ratio"},
		"mapreduce.hedged_reads":         {float64(c.hedged), "count"},
		"mapreduce.read_retries":         {float64(c.retries), "count"},
		"runtime.gc_cpu_s":               {it.untraced.gcCPU, "s"},
		"runtime.allocs":                 {float64(it.untraced.allocs), "count"},
		"trace.cpu_s":                    {it.traced.cpu, "s"},
		"unattributed_s":                 {it.traced.cpu - t.selfTotal().Seconds(), "s"},
		"trace.overhead":                 {it.traced.cpu / it.untraced.cpu, "ratio"},
	}
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]] = metric{t.self[l].Seconds(), "s"}
	}
	return m
}

// loadKept times snapshot.LoadFile on each of the n kept checkpoints and
// records their sizes.
func (b *bench) loadKept(n int) {
	for k := 1; k <= n; k++ {
		var err error
		s := timed(func() { _, _, err = snapshot.LoadFile(b.keptPath(k)) })
		if b.g.check(fmt.Sprintf("load checkpoint %d", k), err) {
			b.loadFileS = append(b.loadFileS, s)
		}
		if st, err := os.Stat(b.keptPath(k)); err == nil {
			b.ckptBytes = append(b.ckptBytes, float64(st.Size()))
		}
	}
}

// medianIter returns the iteration with the median traced CPU (the lower
// middle one for an even count).
func medianIter(iters []traceIter) traceIter {
	sorted := append([]traceIter(nil), iters...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].traced.cpu < sorted[j].traced.cpu })
	return sorted[(len(sorted)-1)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
