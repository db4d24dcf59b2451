package mapreduce

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// Tracker is the job tracker: it loads the workload's files into the DFS,
// replays job arrivals, drives per-node heartbeats, launches tasks, and
// collects results.
//
// The tracker drives the clock-side machinery — arrivals, heartbeats,
// task execution (exec.go), and injected churn (failure.go) — and
// publishes each transition on the cluster event bus for observers: the
// replication policy, the trace recorder, and the invariant checker
// (invariants.go), the one tracker component on the bus. Its own
// decisions are direct calls: attempt limits, backoff, and blacklisting
// (failurehandler.go) and speculative execution (speculator.go).
type Tracker struct {
	c   *Cluster
	sel TaskSelector
	bus *event.Bus

	wl      *workload.Workload
	files   []*dfs.File
	active  []*Job // arrival order; iterated on every replica event
	jobByID map[int32]*Job
	results []Result

	totalJobs int
	completed int
	hb        *heartbeatDriver

	// injections holds every planned fault, in registration order until
	// Run sorts it into firing order (see actions.go).
	injections []injection

	// Failure-injection state (see failure.go).
	inflight       map[*Node]map[*taskRec]bool
	failureEvents  []FailureEvent
	recoveryEvents []RecoveryEvent
	repairDisabled bool
	repairsDone    int
	lastRepairAt   float64
	// repairInFlight dedups repair scheduling: blocks already queued by an
	// overlapping round are not re-queued (no double copies).
	repairInFlight map[dfs.BlockID]bool
	// releaseTags holds one read-release event tag per node (readBeginTag).
	releaseTags []readReleaseTag

	// Gray-failure injection state (see gray.go).
	gray grayState

	// Control-plane failover state (see master.go).
	master masterState

	// weights caches the access-weight vector (by BlockID) backing
	// per-event weighted availability snapshots; built lazily from the
	// workload.
	weights []float64

	// The tracker's decomposed concerns, each living in its own file.
	faults  *failureHandler
	spec    *speculator
	checker *invariantChecker

	// streaming marks open-ended service mode: completion never stops the
	// engine and the job count grows as the stream generator appends.
	streaming bool
}

// subscribe registers the invariant checker on the cluster bus. It is a
// variable so a test can hide the checker's kind filter and replay a run
// on a bus that broadcasts every kind to it, or add its own observers
// beside it (export_test.go).
var subscribe = (*event.Bus).Subscribe

// NewTracker wires a tracker to a cluster and a scheduler, subscribes the
// invariant checker to the cluster bus, and loads the workload's file
// population into the DFS immediately (files exist before the first job
// arrives, as in the paper's experiments where SWIM pre-populates HDFS).
func NewTracker(c *Cluster, wl *workload.Workload, sel TaskSelector) (*Tracker, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	t := &Tracker{
		c:         c,
		sel:       sel,
		bus:       c.Bus,
		wl:        wl,
		jobByID:   make(map[int32]*Job),
		totalJobs: len(wl.Jobs),
		inflight:  make(map[*Node]map[*taskRec]bool),

		repairInFlight: make(map[dfs.BlockID]bool),
		releaseTags:    make([]readReleaseTag, len(c.Nodes)),
	}
	t.faults = newFailureHandler(t)
	t.spec = &speculator{t: t}
	t.checker = &invariantChecker{t: t}
	subscribe(t.bus, t.checker)
	specs := make([]dfs.FileSpec, len(wl.Files))
	for i, fs := range wl.Files {
		specs[i] = dfs.FileSpec(fs)
	}
	files, err := c.NN.CreateFiles(specs, c.Profile.BlockSizeBytes(), 0)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: loading the workload's files: %w", err)
	}
	t.files = files
	return t, nil
}

// Files exposes the DFS files backing the workload, index-aligned with
// workload.Files.
func (t *Tracker) Files() []*dfs.File { return t.files }

// Run replays the whole workload and returns per-job results sorted by
// job ID. It is single-use.
func (t *Tracker) Run() ([]Result, error) {
	return t.RunWith(nil)
}

// RunWith is Run with a pluggable engine drive: every stretch of event
// processing goes through run(engine, until) — the workload horizon first,
// then each repair-drain extension. The default drive (nil) is a plain
// RunUntil. The durable runner substitutes a drive that stops at
// checkpoint boundaries and on interrupts; an error from run abandons the
// whole run (including the drain loop) and is returned as-is.
func (t *Tracker) RunWith(run func(eng *sim.Engine, until float64) error) ([]Result, error) {
	eng := t.c.Eng
	if run == nil {
		run = func(e *sim.Engine, until float64) error {
			e.RunUntil(until)
			return nil
		}
	}
	for _, spec := range t.wl.Jobs {
		spec := spec
		eng.DeferAt(spec.Arrival, func() { t.arrive(spec) })
	}
	if err := t.scheduleInjections(); err != nil {
		return nil, err
	}
	// De-synchronized heartbeats, like real clusters: one coalesced event
	// per cohort per interval.
	t.hb = newHeartbeatDriver(t.c, t.c.Profile.HeartbeatInterval, t.heartbeat)
	installIdleGate(t, t.hb.ct)
	// Generous runaway guard: a workload that cannot finish in simulated
	// years indicates a scheduling bug; surface it instead of spinning.
	// Streaming runs have no fixed job list; their drive closure owns the
	// horizon and returns when the stream ends.
	horizon := t.lastArrival() + 1e7
	if err := run(eng, horizon); err != nil {
		return nil, err
	}
	t.hb.StopAll()
	// Background re-replication outlives the workload: drain the repair
	// queue so post-run state reflects a healed DFS. The loop re-reads the
	// bound because the detection event itself extends it.
	for t.checker.err == nil && t.lastRepairAt > eng.Now() {
		if err := run(eng, t.lastRepairAt+1e-9); err != nil {
			return nil, err
		}
	}
	if t.checker.err != nil {
		return nil, t.checker.err
	}
	if t.master.err != nil {
		return nil, t.master.err
	}
	if !t.streaming && t.completed != t.totalJobs {
		return nil, &incompleteError{completed: t.completed, total: t.totalJobs, horizon: horizon}
	}
	sort.Slice(t.results, func(i, j int) bool { return t.results[i].ID < t.results[j].ID })
	return t.results, nil
}

// ErrIncomplete is the error a batch run returns, wrapped with its job
// counts, when the runaway horizon passes with jobs still unfinished —
// for example because every node failed. Test for it with errors.Is.
var ErrIncomplete = errors.New("mapreduce: jobs incomplete at horizon")

// incompleteError is ErrIncomplete with the run's job counts.
type incompleteError struct {
	completed, total int
	horizon          float64
}

func (e *incompleteError) Error() string {
	return fmt.Sprintf("mapreduce: only %d/%d jobs completed by horizon %g", e.completed, e.total, e.horizon)
}

func (e *incompleteError) Unwrap() error { return ErrIncomplete }

// SetStreaming switches the tracker to open-ended service mode: job
// completion no longer stops the engine (the stream drive owns the
// horizon), and RunWith returns whatever completed instead of requiring
// every appended job to finish. Call before Run.
func (t *Tracker) SetStreaming(v bool) { t.streaming = v }

// AppendJobs defers the arrival of additional jobs mid-run — the stream
// generator's per-window chunk. Every arrival must be in the engine's
// future; the tracker trusts the generator on that (DeferAt panics
// otherwise).
func (t *Tracker) AppendJobs(specs []workload.Job) {
	for _, spec := range specs {
		t.totalJobs++
		t.deferTag(spec.Arrival, &arriveTag{spec: spec})
	}
}

// arriveTag is a stream-appended job arrival.
type arriveTag struct{ spec workload.Job }

func (a *arriveTag) TagKind() uint16            { return TagArrive }
func (a *arriveTag) WalkTag(w *snapshot.Walker) { workload.WalkJob(w, &a.spec) }
func (a *arriveTag) fire(t *Tracker)            { t.arrive(a.spec) }

// check holds a decoded arrival to the workload's per-job rule: arrive
// reads the job's input window from its file.
func (a *arriveTag) check(t *Tracker) error {
	if err := t.wl.CheckJob(a.spec.ID, a.spec); err != nil {
		return fmt.Errorf("mapreduce: arrival tag: %w", err)
	}
	return nil
}

// Completed reports jobs finished so far (stream-window metrics).
func (t *Tracker) Completed() int { return t.completed }

// TotalJobs reports jobs submitted so far (arrivals already deferred).
func (t *Tracker) TotalJobs() int { return t.totalJobs }

// FinishedAfter returns the results of the jobs that finished after time
// since, sorted by job ID; the slice is a copy. Results are kept in finish
// order (a state image keeps it too), so the scan reads only that suffix:
// a stream report pays for its window, not for the whole run.
func (t *Tracker) FinishedAfter(since float64) []Result {
	i := len(t.results)
	for i > 0 && t.results[i-1].Finish > since {
		i--
	}
	out := slices.Clone(t.results[i:])
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *Tracker) lastArrival() float64 {
	if len(t.wl.Jobs) == 0 {
		return 0
	}
	return t.wl.Jobs[len(t.wl.Jobs)-1].Arrival
}

func (t *Tracker) arrive(spec workload.Job) {
	j := NewJob(spec, t.files[spec.File], t.c)
	j.setRegistered(true)
	t.active = append(t.active, j)
	t.jobByID[int32(spec.ID)] = j
	t.sel.AddJob(j)
	ev := event.New(event.JobArrive)
	ev.Job = int32(spec.ID)
	ev.File = int32(t.files[spec.File].ID)
	ev.Aux = int64(spec.NumMaps)
	t.bus.Publish(ev)
}

// heartbeat offers node's free slots to the scheduler, Hadoop-style: the
// task tracker reports in, the job tracker hands back tasks. A slot kind
// is offered only while some registered job has work of that kind
// pending: with none, both selectors return nothing and change no state,
// so skipping the call leaves the run unchanged.
//
// When the idle gate holds (idleGate.Idle), a beat does nothing but add
// one to the bus's Heartbeat tally, and the gate does that for a whole
// cohort at once instead of calling heartbeat per node.
func (t *Tracker) heartbeat(node *Node) {
	if t.master.down {
		// Nobody answers: the task tracker retries next interval. No
		// Heartbeat event fires and the speculator stays silent too.
		t.master.outageHeartbeats++
		t.master.stats.DeferredHeartbeats++
		return
	}
	if t.master.enabled && t.c.NN.NeedsBlockReport(node.ID) {
		// First contact with a warming master delivers the node's block
		// report before any scheduling (even a blacklisted node reports).
		t.deliverReport(node)
	}
	if node.Blacklisted {
		return // reports in, gets no work (Hadoop blacklist semantics)
	}
	now := t.c.Eng.Now()
	for node.FreeMapSlots > 0 && t.c.pendingMapInputs > 0 {
		j, b, ok := t.sel.SelectMapTask(node.ID, now)
		if !ok {
			break
		}
		t.launchMap(node, j, b)
	}
	// The heartbeat event fires between the map and reduce rounds, and
	// then the speculator fills map slots the scheduler left idle with
	// backup attempts for stragglers.
	hb := event.New(event.Heartbeat)
	hb.Node = int32(node.ID)
	hb.Rack = int32(t.c.Topo.Rack(node.ID))
	hb.Aux = int64(node.FreeMapSlots)
	t.bus.Publish(hb)
	if t.c.Profile.SpeculativeExecution {
		t.spec.speculate(node)
	}
	for node.FreeReduceSlots > 0 && t.c.launchableReduces > 0 {
		j, ok := t.sel.SelectReduceTask(node.ID, now)
		if !ok {
			break
		}
		t.launchReduce(node, j)
	}
}

// installIdleGate puts the tracker's idle-heartbeat gate on its cohort
// ticker: while the gate holds, a cohort tick tallies its members'
// Heartbeat events in one add instead of running heartbeat per node. It
// is a variable so a test can leave the gate off, or count the beats it
// skips, and replay a run on the full sweep (export_test.go).
var installIdleGate = func(t *Tracker, ct *sim.CohortTicker) { ct.SetIdleGate((*idleGate)(t)) }

// idleGate is the tracker seen as its cohort ticker's sim.IdleGate.
type idleGate Tracker

// Idle reports whether every live node's beat would only count one
// unheard Heartbeat: speculation is off (a beat may launch backups), no
// subscriber hears Heartbeat, no registered job has a map input or a
// reduce to offer, the master is up, no block report is awaited, and no
// node is blacklisted (a blacklisted node's beat publishes nothing). Such
// a beat changes none of these, so the answer holds for a whole cohort
// sweep. Every term is O(1); the ones most often false on a busy or
// traced run come first.
func (g *idleGate) Idle() bool {
	return !g.c.Profile.SpeculativeExecution && !g.bus.Hears(event.Heartbeat) &&
		g.c.pendingMapInputs == 0 && g.c.launchableReduces == 0 &&
		!g.master.down && !g.c.NN.Warming() && g.c.blacklisted == 0
}

// Skipped counts n gated beats as the n Heartbeat publishes the skipped
// sweep would have made.
func (g *idleGate) Skipped(n int) { g.bus.Tally(event.Heartbeat, n) }

// finishJob retires a job (completed or failed), emits its JobFinish
// event, and stops the engine when it was the last one.
func (t *Tracker) finishJob(j *Job) {
	if j.finished {
		return
	}
	j.finished = true
	j.finishTime = t.c.Eng.Now()
	j.setRegistered(false)
	for i, a := range t.active {
		if a == j {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	delete(t.jobByID, int32(j.Spec.ID))
	t.sel.RemoveJob(j)
	t.results = append(t.results, j.result())
	t.completed++
	ev := event.New(event.JobFinish)
	ev.Job = int32(j.Spec.ID)
	ev.Aux = int64(j.completedMaps)
	ev.Flag = j.failed
	t.bus.Publish(ev)
	if t.completed == t.totalJobs && !t.streaming {
		t.c.Eng.Stop()
	}
}
