package mapreduce

import (
	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/topology"
	"dare/internal/workload"
)

// Locality classifies where a map task ran relative to its input block.
type Locality int

const (
	// NodeLocal: the input block has a replica on the executing node.
	NodeLocal Locality = iota
	// RackLocal: a replica exists in the executing node's rack.
	RackLocal
	// Remote: the nearest replica is off-rack.
	Remote
)

// String implements fmt.Stringer.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	default:
		return "remote"
	}
}

// pendingRef identifies one pending map input: the block and the sequence
// number it was (last) enqueued under. Sequence numbers make lazy deletion
// possible: a ref whose seq no longer matches the block's current entry in
// pendingSeq is stale and is discarded when encountered.
type pendingRef struct {
	seq uint64
	b   dfs.BlockID
}

// Job is the runtime state of one trace job inside the cluster.
type Job struct {
	Spec workload.Job
	// File is the DFS file backing the job's input window.
	File *dfs.File

	cluster *Cluster

	// pending holds not-yet-started map inputs in enqueue order, lazily
	// compacted: entries whose seq is no longer current are skipped when
	// popped.
	pending []pendingRef
	// pendingSeq maps each currently pending block to its live seq;
	// presence in this map is the definition of "pending".
	pendingSeq map[dfs.BlockID]uint64
	// nextSeq starts at 1 so the zero value a map lookup returns for a
	// missing block never matches a real seq.
	nextSeq uint64

	runningMaps   int
	completedMaps int

	localMaps     int
	rackMaps      int
	remoteMaps    int
	mapTimeSum    float64
	remoteBytes   int64
	outputBytes   int64
	firstTaskTime float64

	pendingReduces  int
	runningReduces  int
	finishedReduces int

	// attempts counts failed attempts per map input; when a block exhausts
	// the tracker's attempt limit, the whole job fails (Hadoop's
	// mapred.map.max.attempts semantics). Allocated on first failure.
	attempts map[dfs.BlockID]int

	finished   bool
	failed     bool
	finishTime float64

	// registered marks a job the tracker has registered and not yet
	// retired; only registered jobs count toward the cluster's demand
	// counters. Derived from the tracker's active list.
	registered bool
}

// NewJob binds a trace job to its DFS file in cluster c. The tracker
// creates jobs at their arrival times; tests and library users may create
// them directly.
func NewJob(spec workload.Job, file *dfs.File, c *Cluster) *Job {
	j := &Job{
		Spec:           spec,
		File:           file,
		cluster:        c,
		pendingSeq:     make(map[dfs.BlockID]uint64, spec.NumMaps),
		nextSeq:        1,
		pendingReduces: spec.NumReduces,
		firstTaskTime:  -1,
	}
	for i := spec.FirstBlock; i < spec.FirstBlock+spec.NumMaps; i++ {
		j.addPending(file.Blocks[i])
	}
	return j
}

// addPending enqueues b with a fresh seq.
func (j *Job) addPending(b dfs.BlockID) {
	seq := j.nextSeq
	j.nextSeq++
	j.pendingSeq[b] = seq
	j.pending = append(j.pending, pendingRef{seq: seq, b: b})
	if j.registered {
		j.cluster.pendingMapInputs++
	}
}

// inputs returns the job's map inputs as the block ID range [lo, hi): a
// file's blocks have consecutive IDs, so the window is NumMaps IDs from
// its first block.
func (j *Job) inputs() (lo, hi dfs.BlockID) {
	lo = j.File.Blocks[j.Spec.FirstBlock]
	return lo, lo + dfs.BlockID(j.Spec.NumMaps)
}

// ID reports the trace job ID.
func (j *Job) ID() int { return j.Spec.ID }

// PendingMaps reports map tasks not yet launched.
func (j *Job) PendingMaps() int { return len(j.pendingSeq) }

// RunningMaps reports in-flight map tasks.
func (j *Job) RunningMaps() int { return j.runningMaps }

// CompletedMaps reports finished map tasks.
func (j *Job) CompletedMaps() int { return j.completedMaps }

// MapsDone reports whether the entire map phase has completed.
func (j *Job) MapsDone() bool { return j.completedMaps == j.Spec.NumMaps }

// PendingReduces reports reduce tasks not yet launched. Reduces only
// become runnable once the map phase completes.
func (j *Job) PendingReduces() int {
	if !j.MapsDone() {
		return 0
	}
	return j.pendingReduces
}

// RunningReduces reports in-flight reduce tasks.
func (j *Job) RunningReduces() int { return j.runningReduces }

// live reports whether a pending entry still refers to the current
// enqueue of its block.
func (j *Job) live(e pendingRef) bool { return j.pendingSeq[e.b] == e.seq }

// dropPending removes b from the pending set: its map task launches.
func (j *Job) dropPending(b dfs.BlockID) {
	delete(j.pendingSeq, b)
	if j.registered {
		j.cluster.pendingMapInputs--
	}
}

// mapCompleted counts one finished map task. The last one turns
// MapsDone true, which makes the job's pending reduces launchable.
func (j *Job) mapCompleted() {
	j.completedMaps++
	if j.registered && j.MapsDone() {
		j.cluster.launchableReduces += j.pendingReduces
	}
}

// startReduce moves one pending reduce task to running.
func (j *Job) startReduce() {
	if j.registered && j.MapsDone() {
		j.cluster.launchableReduces--
	}
	j.pendingReduces--
	j.runningReduces++
}

// requeueReduce returns a killed running reduce task to the pending set.
func (j *Job) requeueReduce() {
	if j.registered && j.MapsDone() {
		j.cluster.launchableReduces++
	}
	j.runningReduces--
	j.pendingReduces++
}

// setRegistered enters (true) or leaves (false) the cluster's demand
// counters with the job's current pending work. The tracker registers a
// job at arrival (and at state restore) and retires it when it finishes
// or fails, so a zombie job's leftover work never counts.
func (j *Job) setRegistered(v bool) {
	if j.registered == v {
		return
	}
	sign := 1
	if !v {
		sign = -1
	}
	j.registered = v
	j.cluster.pendingMapInputs += sign * j.PendingMaps()
	j.cluster.launchableReduces += sign * j.PendingReduces()
}

// TakeLocalBlock removes and returns a pending block with a replica on
// node, preferring the lowest enqueue order (file offset, then requeue
// order) for determinism. It asks the name node which of the job's
// inputs node holds, as an unmodified Hadoop scheduler does: the answer
// already counts every dynamic replica.
func (j *Job) TakeLocalBlock(node topology.NodeID) (dfs.BlockID, bool) {
	lo, hi := j.inputs()
	var best dfs.BlockID
	var bestSeq uint64
	for _, b := range j.cluster.NN.NodeBlocks(node, lo, hi) {
		if seq, ok := j.pendingSeq[b]; ok && (bestSeq == 0 || seq < bestSeq) {
			best, bestSeq = b, seq
		}
	}
	if bestSeq == 0 {
		return 0, false
	}
	j.dropPending(best)
	return best, true
}

// TakeRackLocalBlock removes and returns the oldest pending block with a
// replica in node's rack but not on node itself.
func (j *Job) TakeRackLocalBlock(node topology.NodeID) (dfs.BlockID, bool) {
	topo := j.cluster.Topo
	rack := topo.Rack(node)
	for _, e := range j.pending {
		if !j.live(e) {
			continue
		}
		found := false
		j.cluster.NN.ForEachLocation(e.b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
			found = n != node && topo.Rack(n) == rack
			return !found
		})
		if found {
			j.dropPending(e.b)
			return e.b, true
		}
	}
	return 0, false
}

// TakeAnyBlock removes and returns the oldest pending block.
func (j *Job) TakeAnyBlock() (dfs.BlockID, bool) {
	for len(j.pending) > 0 {
		e := j.pending[0]
		j.pending = j.pending[1:]
		if !j.live(e) {
			continue
		}
		j.dropPending(e.b)
		return e.b, true
	}
	return 0, false
}

// outputBlocksPerReduce splits the job's output volume evenly across its
// reduce tasks.
func (j *Job) outputBlocksPerReduce() float64 {
	if j.Spec.NumReduces == 0 {
		return 0
	}
	return float64(j.Spec.OutputBlocks) / float64(j.Spec.NumReduces)
}

// outputNetworkBytesPerReduce is the fabric traffic one reduce task's
// output pipeline generates: (replication-1) downstream copies.
func (j *Job) outputNetworkBytesPerReduce(p *config.Profile) int64 {
	if j.Spec.NumReduces == 0 || p.ReplicationFactor <= 1 {
		return 0
	}
	perReduce := j.outputBlocksPerReduce() * float64(p.BlockSizeBytes())
	return int64(perReduce * float64(p.ReplicationFactor-1))
}

// Requeue returns a block to the pending set after its task was killed by
// a node failure; the scheduler will relaunch it elsewhere. The block gets
// a fresh seq, placing it behind every currently pending block.
func (j *Job) Requeue(b dfs.BlockID) {
	if _, ok := j.pendingSeq[b]; ok {
		return
	}
	j.addPending(b)
}

// Result summarizes a finished job for the metrics layer.
type Result struct {
	ID       int
	Arrival  float64
	Finish   float64
	NumMaps  int
	NumRed   int
	Local    int
	Rack     int
	Remote   int
	FileRank int // workload file index (popularity rank - 1)
	// MapTimeSum is the summed wall-clock duration of all map tasks,
	// backing the map-completion-time reduction claim (§V-C).
	MapTimeSum float64
	// RemoteBytes is the input bytes this job moved across the network
	// (non-node-local reads). Locality gains show up directly here: the
	// paper's §V-B argues reduced fabric traffic is DARE's key system-level
	// benefit.
	RemoteBytes int64
	// OutputBytes is the network traffic of the output replication
	// pipeline — identical with and without DARE, which is why
	// output-bound jobs see no benefit (§V-C).
	OutputBytes int64
	// OutputBlocks echoes the job's output volume for input/output-bound
	// classification.
	OutputBlocks int
	// Turnaround is Finish - Arrival (the paper's TT_k in eq. 1).
	Turnaround float64
	// FirstLaunch is when the job's first task started; Finish -
	// FirstLaunch is the service time, free of queueing delay.
	FirstLaunch float64
	// Dedicated is the analytic 100%-local empty-cluster running time —
	// the slowdown denominator (§V-A).
	Dedicated float64
	// Failed marks a job that ended in failure after a task exhausted its
	// attempt limit; Finish then records the failure time.
	Failed bool
}

// Slowdown reports Turnaround / Dedicated.
func (r Result) Slowdown() float64 {
	if r.Dedicated <= 0 {
		return 0
	}
	return r.Turnaround / r.Dedicated
}

// ServiceTime reports the job's running time once scheduled (Finish -
// FirstLaunch), the §V-A "running time" used in the slowdown definition.
func (r Result) ServiceTime() float64 {
	if r.FirstLaunch < 0 {
		return r.Turnaround
	}
	return r.Finish - r.FirstLaunch
}

// Locality reports the node-local fraction of the job's map tasks.
func (r Result) Locality() float64 {
	total := r.Local + r.Rack + r.Remote
	if total == 0 {
		return 0
	}
	return float64(r.Local) / float64(total)
}

// result builds the Result snapshot for a finished job.
func (j *Job) result() Result {
	return Result{
		ID:           j.Spec.ID,
		Arrival:      j.Spec.Arrival,
		Finish:       j.finishTime,
		NumMaps:      j.Spec.NumMaps,
		NumRed:       j.Spec.NumReduces,
		Local:        j.localMaps,
		Rack:         j.rackMaps,
		Remote:       j.remoteMaps,
		FileRank:     j.Spec.File,
		MapTimeSum:   j.mapTimeSum,
		RemoteBytes:  j.remoteBytes,
		OutputBytes:  j.outputBytes,
		OutputBlocks: j.Spec.OutputBlocks,
		FirstLaunch:  j.firstTaskTime,
		Failed:       j.failed,
		Turnaround:   j.finishTime - j.Spec.Arrival,
		Dedicated: j.cluster.DedicatedRunTime(
			j.Spec.NumMaps, j.Spec.CPUPerTask, j.Spec.NumReduces, j.Spec.ReduceTime, j.Spec.OutputBlocks),
	}
}
