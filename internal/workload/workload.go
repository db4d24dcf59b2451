// Package workload synthesizes MapReduce job traces shaped like the
// Facebook traces the paper replays (§V-A). The paper uses SWIM (Chen et
// al., MASCOTS'11) to sample 500-job segments of a 600-machine Facebook
// production trace; we do not have that trace, so this package generates
// statistically equivalent ones:
//
//   - wl1 (paper: jobs 0–499): a long sequence of small jobs with modest
//     size variance — the regime that favours the FIFO scheduler.
//   - wl2 (paper: jobs 4800–5299): a recurring pattern of small jobs
//     arriving after large jobs — the regime that favours the Fair
//     scheduler.
//
// File popularity follows the heavy-tailed access CDF of Fig. 6 (~120
// files, the top handful absorbing most accesses), and file sizes are
// heavy-tailed in blocks, matching the block-weighted popularity curve of
// Fig. 2.
package workload

import (
	"fmt"
	"math"

	"dare/internal/stats"
)

// FileSpec describes one input file to pre-load into the DFS.
type FileSpec struct {
	Name   string
	Blocks int
}

// Job is one MapReduce job of the trace. A job reads NumMaps consecutive
// blocks of its input file starting at FirstBlock — one map task per block
// (§II-A) — then runs NumReduces reduce tasks.
type Job struct {
	ID      int
	Arrival float64 // seconds since trace start
	File    int     // index into Workload.Files
	// FirstBlock is the block offset of the read window within the file.
	FirstBlock int
	// NumMaps is the window length; one map task per block.
	NumMaps int
	// CPUPerTask is the per-map compute time in seconds (overlapped with
	// the input read; the slower of the two dominates).
	CPUPerTask float64
	// NumReduces and ReduceTime model the reduce phase: after the last map
	// finishes, NumReduces tasks of ReduceTime seconds each occupy reduce
	// slots.
	NumReduces int
	ReduceTime float64
	// OutputBlocks is the job's output volume in DFS blocks, written by
	// the reduce phase through the HDFS replication pipeline. Jobs whose
	// output rivals their input are "output-bound" (§V-C): dynamic
	// replication cannot expedite them, and the paper observes exactly
	// that.
	OutputBlocks int
	// Pool names the fair-scheduler pool (user/organization) the job
	// belongs to; empty means the default pool. The Hadoop Fair Scheduler
	// shares the cluster between pools first and between a pool's jobs
	// second.
	Pool string
}

// Workload is a complete synthetic trace: the file population plus the job
// sequence.
type Workload struct {
	Name  string
	Files []FileSpec
	Jobs  []Job
	// ZipfS is the popularity exponent used, recorded for reporting.
	ZipfS float64
}

// TotalMaps reports the total number of map tasks across all jobs.
func (w *Workload) TotalMaps() int {
	total := 0
	for _, j := range w.Jobs {
		total += j.NumMaps
	}
	return total
}

// Validate checks referential integrity: every job passes CheckJob and
// arrives no earlier than the job before it, and every file has a block.
func (w *Workload) Validate() error {
	for i, j := range w.Jobs {
		if err := w.CheckJob(i, j); err != nil {
			return err
		}
		if i > 0 && j.Arrival < w.Jobs[i-1].Arrival {
			return fmt.Errorf("workload: job %d arrives before job %d", i, i-1)
		}
	}
	for i, f := range w.Files {
		if f.Blocks < 1 {
			return fmt.Errorf("workload: file %d (%q) has %d blocks", i, f.Name, f.Blocks)
		}
	}
	return nil
}

// CheckJob is Validate's rule for one job, which i names in the error: j
// reads an existing window of an existing file of w, all its quantities
// are positive, and every time is finite. A job that reaches a tracker
// some other way than w.Jobs (a stream arrival, a state image) is held to
// it too.
func (w *Workload) CheckJob(i int, j Job) error {
	if j.File < 0 || j.File >= len(w.Files) {
		return fmt.Errorf("workload: job %d references file %d of %d", i, j.File, len(w.Files))
	}
	f := w.Files[j.File]
	if j.NumMaps < 1 {
		return fmt.Errorf("workload: job %d has %d maps", i, j.NumMaps)
	}
	// Compare the window to the blocks left after FirstBlock: the end
	// FirstBlock+NumMaps can overflow int.
	if j.FirstBlock < 0 || j.FirstBlock > f.Blocks || j.NumMaps > f.Blocks-j.FirstBlock {
		return fmt.Errorf("workload: job %d window of %d blocks at block %d exceeds file %q (%d blocks)",
			i, j.NumMaps, j.FirstBlock, f.Name, f.Blocks)
	}
	if !finite(j.Arrival) || j.Arrival < 0 || !finite(j.CPUPerTask) || j.CPUPerTask <= 0 || !finite(j.ReduceTime) {
		return fmt.Errorf("workload: job %d has invalid timing (arrival %v, cpu %v, reduce %v)", i, j.Arrival, j.CPUPerTask, j.ReduceTime)
	}
	if j.NumReduces < 0 || (j.NumReduces > 0 && j.ReduceTime <= 0) {
		return fmt.Errorf("workload: job %d has invalid reduce phase", i)
	}
	if j.OutputBlocks < 0 {
		return fmt.Errorf("workload: job %d has negative output", i)
	}
	if j.OutputBlocks > 0 && j.NumReduces == 0 {
		return fmt.Errorf("workload: job %d writes output without reduces", i)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// GenConfig parameterizes trace synthesis. Zero values are filled with the
// defaults used throughout the evaluation.
type GenConfig struct {
	// Name labels the workload ("wl1", "wl2").
	Name string
	// NumJobs is the trace length (paper: 500).
	NumJobs int
	// NumFiles is the file population size (Fig. 6: ~120 ranks).
	NumFiles int
	// ZipfS is the popularity exponent of the access CDF.
	ZipfS float64
	// MeanInterarrival is the mean of the exponential job interarrival in
	// seconds.
	MeanInterarrival float64
	// MinFileBlocks/MaxFileBlocks bound the heavy-tailed file size.
	MinFileBlocks, MaxFileBlocks int
	// LargeEvery inserts a large job every LargeEvery jobs (0 disables —
	// wl1); wl2 uses ~10.
	LargeEvery int
	// SmallMaps and LargeMaps are the map-count distributions of the two
	// job classes.
	SmallMaps stats.Dist
	LargeMaps stats.Dist
	// CPUPerTask is the per-map compute time distribution in seconds.
	CPUPerTask stats.Dist
	// FileRepeatProb is the probability that a job re-reads the previous
	// job's file, modelling the strong temporal access correlation of §III
	// (Figs. 3-5): fresh data attracts bursts of concurrent analyses.
	FileRepeatProb float64
	// BurstProb is the probability that a job co-arrives with its
	// predecessor (zero gap), creating the concurrent-access hotspots the
	// paper's replica-allocation problem targets (§I).
	BurstProb float64
	// OutputRatio is the distribution of output-to-input size ratios; the
	// Facebook mix is bimodal — mostly aggregations that shrink the data
	// (~0.1x) with a minority of transformations that keep or grow it
	// (~1.2x), the §V-C "mixture of input-bound and output-bound tasks".
	OutputRatio stats.Dist
	// Pools, when > 1, assigns jobs round-robin to this many fair-scheduler
	// pools ("user-0", "user-1", ...), for multi-tenant scenarios. The
	// paper's wl1/wl2 use a single pool.
	Pools int
	// ShiftAtJob, when positive, rotates the popularity ranking by half
	// the file population starting at that job index: yesterday's hot
	// files go cold and a disjoint set becomes hot. This models the
	// §IV goal of "dynamically adapting to changes in file access
	// patterns" and drives the DARE-vs-Scarlett adaptation experiment.
	ShiftAtJob int
	// Seed drives all sampling.
	Seed uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.NumJobs == 0 {
		c.NumJobs = 500
	}
	if c.NumFiles == 0 {
		c.NumFiles = 120
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.55
	}
	if c.MeanInterarrival == 0 {
		// SWIM scales a 600-machine trace down to the test cluster by
		// compressing arrivals so per-node load is preserved; on ~20 nodes
		// that means sub-second interarrivals for the small-job stream.
		c.MeanInterarrival = 0.09
	}
	if c.MinFileBlocks == 0 {
		c.MinFileBlocks = 4
	}
	if c.MaxFileBlocks == 0 {
		c.MaxFileBlocks = 96
	}
	if c.SmallMaps == nil {
		c.SmallMaps = stats.BoundedPareto{L: 1, H: 20, Alpha: 1.9}
	}
	if c.LargeMaps == nil {
		c.LargeMaps = stats.Uniform{Lo: 60, Hi: 200}
	}
	if c.CPUPerTask == nil {
		// Input-bound map tasks: the compute overlaps a ~0.8 s local block
		// read, so locality visibly moves task duration (the Facebook mix
		// is dominated by such I/O-bound maps, §V-C).
		c.CPUPerTask = stats.LogNormalFromMoments(1.0, 0.5)
	}
	if c.FileRepeatProb == 0 {
		c.FileRepeatProb = 0.25
	}
	if c.BurstProb == 0 {
		c.BurstProb = 0.5
	}
	if c.OutputRatio == nil {
		c.OutputRatio = stats.Mixture{
			Weights:    []float64{0.7, 0.3},
			Components: []stats.Dist{stats.Constant{V: 0.1}, stats.Constant{V: 1.2}},
		}
	}
	return c
}

// Generate synthesizes a workload from cfg. Identical configs (including
// Seed) produce identical workloads.
func Generate(cfg GenConfig) *Workload {
	cfg = cfg.withDefaults()
	s, w := newSynth(cfg)
	for i := 0; i < cfg.NumJobs; i++ {
		w.Jobs = append(w.Jobs, s.nextJob())
	}
	return w
}

// newSynth builds the file population and a primed job sampler. Generate
// and NewStream both go through it, so a stream under the same GenConfig
// emits exactly the job sequence Generate would — same files, same draws,
// same order.
func newSynth(cfg GenConfig) (*jobSynth, *Workload) {
	g := stats.NewRNG(cfg.Seed)
	fileG := g.Split(1)
	popG := g.Split(2)
	arrG := g.Split(3)
	sizeG := g.Split(4)
	cpuG := g.Split(5)
	outG := g.Split(6)

	w := &Workload{Name: cfg.Name, ZipfS: cfg.ZipfS}

	// File population: heavy-tailed sizes. Popular (low-rank) files are
	// the working set of the day (§III); their sizes are drawn from the
	// same distribution as everyone else's, matching Fig. 2's observation
	// that weighting by block count preserves the heavy tail.
	sizeDist := stats.BoundedPareto{L: float64(cfg.MinFileBlocks), H: float64(cfg.MaxFileBlocks), Alpha: 1.1}
	var largeFiles []int
	for i := 0; i < cfg.NumFiles; i++ {
		blocks := int(math.Round(sizeDist.Sample(fileG)))
		if blocks < cfg.MinFileBlocks {
			blocks = cfg.MinFileBlocks
		}
		if blocks > cfg.MaxFileBlocks {
			blocks = cfg.MaxFileBlocks
		}
		// Guarantee a population of genuinely large files for the large
		// jobs to scan (one in twelve), mirroring the Facebook trace's mix
		// of small partitions and day-scale datasets.
		if i%12 == 5 && blocks < cfg.MaxFileBlocks*2/3 {
			blocks = cfg.MaxFileBlocks*2/3 + fileG.Intn(cfg.MaxFileBlocks/3+1)
		}
		if blocks >= cfg.MaxFileBlocks/2 {
			largeFiles = append(largeFiles, i)
		}
		w.Files = append(w.Files, FileSpec{Name: fmt.Sprintf("file-%03d", i), Blocks: blocks})
	}

	s := &jobSynth{
		cfg:          cfg,
		files:        w.Files,
		largeFiles:   largeFiles,
		zipf:         stats.NewZipf(cfg.NumFiles, cfg.ZipfS, 0),
		interarrival: stats.Exponential{Lambda: 1 / cfg.MeanInterarrival},
		popG:         popG,
		arrG:         arrG,
		sizeG:        sizeG,
		cpuG:         cpuG,
		outG:         outG,
		prevFile:     -1,
	}
	return s, w
}

// jobSynth is the per-job sampler behind Generate and Stream: the RNG
// streams plus the cross-job correlation state (clock, previous file).
// Extracting it from the Generate loop is what lets a streaming run
// synthesize the exact job sequence Generate would, chunk by chunk — every
// draw happens in the same order on the same stream.
type jobSynth struct {
	cfg          GenConfig
	files        []FileSpec
	largeFiles   []int
	zipf         *stats.Zipf
	interarrival stats.Exponential
	popG, arrG   *stats.RNG
	sizeG, cpuG  *stats.RNG
	outG         *stats.RNG

	now      float64
	prevFile int
	next     int
	// rate, when non-nil, modulates the arrival gap by the instantaneous
	// load level at the current clock (streaming diurnal load); nil leaves
	// Generate's historical arrival process untouched.
	rate func(t float64) float64
}

// nextJob synthesizes one job. The draw order is load-bearing: it must
// stay exactly the historical Generate order (arrival, size, popularity,
// window, cpu, output) or every seeded workload changes.
func (s *jobSynth) nextJob() Job {
	cfg := s.cfg
	i := s.next
	s.next++
	// Bursty arrivals: with probability BurstProb a job co-arrives with
	// its predecessor; the remaining gaps are stretched to keep the
	// long-run arrival rate at 1/MeanInterarrival.
	gap := s.interarrival.Sample(s.arrG) / (1 - cfg.BurstProb)
	if i > 0 && s.arrG.Bool(cfg.BurstProb) {
		gap = 0
	}
	if s.rate != nil && gap > 0 {
		if r := s.rate(s.now); r > 0 {
			gap /= r
		}
	}
	s.now += gap
	large := cfg.LargeEvery > 0 && i%cfg.LargeEvery == 0
	var maps int
	if large {
		maps = int(math.Round(cfg.LargeMaps.Sample(s.sizeG)))
	} else {
		maps = int(math.Round(cfg.SmallMaps.Sample(s.sizeG)))
	}
	if maps < 1 {
		maps = 1
	}
	// Popularity-ranked file choice (Fig. 6): rank 1 = file 0, with
	// temporal correlation: a burst of analyses tends to hit the file
	// the previous job read (§III). Large jobs scan large datasets:
	// resample a few times for a file big enough to host the scan,
	// falling back to a random large file.
	file := s.zipf.Rank(s.popG) - 1
	if cfg.ShiftAtJob > 0 && i >= cfg.ShiftAtJob {
		file = (file + cfg.NumFiles/2) % cfg.NumFiles
	}
	if s.prevFile >= 0 && s.popG.Bool(cfg.FileRepeatProb) {
		file = s.prevFile
	}
	if large && len(s.largeFiles) > 0 {
		for try := 0; try < 8 && s.files[file].Blocks < maps; try++ {
			file = s.zipf.Rank(s.popG) - 1
		}
		if s.files[file].Blocks < maps {
			file = s.largeFiles[s.popG.Intn(len(s.largeFiles))]
		}
	}
	blocks := s.files[file].Blocks
	if maps > blocks {
		maps = blocks
	}
	// Most scans start at the head of the file (the fresh partition);
	// a minority sample an interior window. The shared prefix is what
	// creates block-level access correlation (§III).
	first := 0
	if blocks > maps && s.sizeG.Float64() < 0.2 {
		first = s.sizeG.Intn(blocks - maps + 1)
	}
	cpu := cfg.CPUPerTask.Sample(s.cpuG)
	if cpu <= 0 {
		cpu = 0.1
	}
	s.prevFile = file
	reduces := 1 + maps/20
	reduceTime := 2 + 0.05*float64(maps)
	output := int(cfg.OutputRatio.Sample(s.outG)*float64(maps) + 0.5)
	if output < 0 {
		output = 0
	}
	pool := ""
	if cfg.Pools > 1 {
		pool = fmt.Sprintf("user-%d", i%cfg.Pools)
	}
	return Job{
		ID:           i,
		Pool:         pool,
		Arrival:      s.now,
		File:         file,
		FirstBlock:   first,
		NumMaps:      maps,
		CPUPerTask:   cpu,
		NumReduces:   reduces,
		ReduceTime:   reduceTime,
		OutputBlocks: output,
	}
}

// presets holds the generator settings of the paper's two workloads; the
// seed is the only knob a preset takes.
var presets = map[string]GenConfig{
	// A long sequence of small jobs (small job-size variance; favours
	// FIFO).
	"wl1": {Name: "wl1"},
	// Small jobs following large jobs (high variance; favours the Fair
	// scheduler, which stops small jobs from starving behind large ones).
	// Arrivals are slower than wl1's: the periodic large jobs carry most
	// of the load.
	"wl2": {Name: "wl2", LargeEvery: 10, MeanInterarrival: 0.6},
}

// Preset returns the generator config of a named paper workload ("wl1"
// or "wl2") at seed. Every entry point that takes a workload name
// resolves it here: batch runs generate from the config, streams sample
// from it.
func Preset(name string, seed uint64) (GenConfig, error) {
	cfg, ok := presets[name]
	if !ok {
		return GenConfig{}, fmt.Errorf("workload: unknown workload preset %q (want wl1|wl2)", name)
	}
	cfg.Seed = seed
	return cfg, nil
}

// WL1 builds the paper's first workload: a long sequence of small jobs.
func WL1(seed uint64) *Workload {
	cfg, _ := Preset("wl1", seed)
	return Generate(cfg)
}

// WL2 builds the paper's second workload: small jobs following large
// jobs.
func WL2(seed uint64) *Workload {
	cfg, _ := Preset("wl2", seed)
	return Generate(cfg)
}

// Fig6Points samples the access-pattern CDF used in the experiments
// (Fig. 6): cumulative access probability by file rank.
func Fig6Points(nFiles int, zipfS float64) []stats.CDFPoint {
	if nFiles <= 0 {
		nFiles = 120
	}
	if zipfS == 0 {
		zipfS = 1.1
	}
	z := stats.NewZipf(nFiles, zipfS, 0)
	pts := make([]stats.CDFPoint, nFiles)
	for k := 1; k <= nFiles; k++ {
		pts[k-1] = stats.CDFPoint{X: float64(k), P: z.CDF(k)}
	}
	return pts
}

// ScaleArrivals returns a copy of the workload with every arrival time
// multiplied by f. SWIM preserves per-slot load when replaying a trace on
// a differently sized cluster by compressing or stretching arrivals; the
// EC2 experiments replay wl1 with f = CCT slots / EC2 slots.
func (w *Workload) ScaleArrivals(f float64) *Workload {
	out := *w
	out.Jobs = make([]Job, len(w.Jobs))
	copy(out.Jobs, w.Jobs)
	for i := range out.Jobs {
		out.Jobs[i].Arrival *= f
	}
	return &out
}

// AccessCounts tallies how many jobs access each file — the empirical
// popularity the trace induces, used by the popularity-index metric.
func (w *Workload) AccessCounts() []int {
	counts := make([]int, len(w.Files))
	for _, j := range w.Jobs {
		counts[j.File]++
	}
	return counts
}

// BlockAccessCounts tallies per-job accesses at block granularity: the
// number of map tasks that read each (file, block) pair.
func (w *Workload) BlockAccessCounts() [][]int {
	counts := make([][]int, len(w.Files))
	for i, f := range w.Files {
		counts[i] = make([]int, f.Blocks)
	}
	for _, j := range w.Jobs {
		for b := j.FirstBlock; b < j.FirstBlock+j.NumMaps; b++ {
			counts[j.File][b]++
		}
	}
	return counts
}
