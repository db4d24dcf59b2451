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

// blockHeap is a hand-rolled binary min-heap of pendingRefs ordered by
// seq. Because pending blocks are enqueued in file order (and requeues get
// fresh, higher seqs), the minimum live seq in a heap is exactly the block
// a linear scan of the pending list would find first — which is what keeps
// the indexed selection byte-identical to the original scan.
type blockHeap []pendingRef

func (h *blockHeap) push(e pendingRef) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h blockHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].seq <= h[i].seq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h blockHeap) siftDown(i int) {
	n := len(h)
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].seq < h[small].seq {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].seq < h[small].seq {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

func (h blockHeap) peek() pendingRef { return h[0] }

func (h *blockHeap) pop() pendingRef {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	(*h).siftDown(0)
	return top
}

// remove deletes every entry for (b, seq) from h and restores the heap
// property with a bottom-up heapify. O(len(h)), but it runs only on the
// replica-removal path (evictions, failures, balancer moves), never on
// selection. Pop order over the remaining live entries is unchanged: a
// min-heap's pop sequence depends only on its multiset of seqs.
func (h *blockHeap) remove(b dfs.BlockID, seq uint64) {
	s := *h
	kept := s[:0]
	for _, e := range s {
		if e.b != b || e.seq != seq {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(s) {
		return
	}
	*h = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.siftDown(i)
	}
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

	// shards[r] holds rack r's slice of the inverted locality index — the
	// per-node heaps for the rack's nodes plus the rack-level heap — that
	// makes TakeLocalBlock/TakeRackLocalBlock O(1)
	// amortized. Shards are allocated lazily on first touch: a job whose
	// input replicas span a handful of racks pays for those racks only,
	// not one heap header per cluster node, which is what lets tens of
	// thousands of nodes coexist with per-job indexes. Heap entries go
	// stale when a block is taken; they are discarded lazily on pop.
	// Replica additions and removals arrive as bus events relayed by the
	// tracker's localityIndexMaintainer: additions push entries, removals
	// drop them eagerly (onReplicaRemoved).
	shards []*jobRackShard
	// rackKeep is scratch for TakeRackLocalBlock: live entries whose only
	// in-rack replica sits on the requesting node are parked here and
	// restored after the search.
	rackKeep []pendingRef

	// linearScan selects the O(pending) scan path. NewJob turns it on for
	// jobs below indexMinMaps — a scan over a handful of pendingRefs beats
	// heap maintenance and allocates nothing. Both paths are
	// byte-identical by construction.
	linearScan bool

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

// jobRackShard is one rack's slice of a job's inverted locality index:
// byNode[o] is the heap for the rack's node with within-rack ordinal o
// (Topology.RackOrdinal), rack the rack-level heap.
type jobRackShard struct {
	byNode []blockHeap
	rack   blockHeap
}

// rackShard returns rack r's shard, allocating it on first touch.
func (j *Job) rackShard(r int) *jobRackShard {
	sh := j.shards[r]
	if sh == nil {
		sh = &jobRackShard{byNode: make([]blockHeap, len(j.cluster.Topo.RackMembers(r)))}
		j.shards[r] = sh
	}
	return sh
}

// nodeHeap returns node's per-node heap within its rack shard.
func (j *Job) nodeHeap(node topology.NodeID) *blockHeap {
	topo := j.cluster.Topo
	return &j.rackShard(topo.Rack(node)).byNode[topo.RackOrdinal(node)]
}

// rackHeap returns rack r's rack-level heap.
func (j *Job) rackHeap(r int) *blockHeap { return &j.rackShard(r).rack }

// indexMinMaps is the pending-set size below which the inverted locality
// index is not worth its allocations: a linear scan over that few
// pendingRefs is at most a couple of cache lines per offer, while the
// index costs one heap entry per replica. Small jobs dominate the paper's
// workloads (wl1 tops out at single-digit maps), so the hybrid keeps them
// allocation-free and reserves the index for the large jobs whose
// O(pending) scans actually hurt. It is a variable only so tests can
// raise it past every job size and replay a run on the scan alone, the
// reference the index must match (export_test.go).
var indexMinMaps = 16

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
		linearScan:     spec.NumMaps < indexMinMaps,
		pendingReduces: spec.NumReduces,
		firstTaskTime:  -1,
	}
	if !j.linearScan {
		j.shards = make([]*jobRackShard, c.Topo.Racks())
	}
	for i := spec.FirstBlock; i < spec.FirstBlock+spec.NumMaps; i++ {
		j.addPending(file.Blocks[i])
	}
	return j
}

// addPending enqueues b with a fresh seq and indexes it under every node
// (and rack) currently holding a replica.
func (j *Job) addPending(b dfs.BlockID) {
	seq := j.nextSeq
	j.nextSeq++
	j.pendingSeq[b] = seq
	j.pending = append(j.pending, pendingRef{seq: seq, b: b})
	if j.registered {
		j.cluster.pendingMapInputs++
	}
	if j.linearScan {
		return
	}
	j.indexBlock(b, seq)
}

// indexBlock pushes b under every node (and rack) currently holding a
// replica. Split from addPending so a state-image restore can rebuild the
// inverted index from the live pending set (state.go).
func (j *Job) indexBlock(b dfs.BlockID, seq uint64) {
	topo := j.cluster.Topo
	// Replicas of one block rarely span more than a few racks; dedup with
	// a small fixed buffer and tolerate duplicate heap entries past it
	// (duplicates are merely lazily-discarded stale refs).
	var racks [8]int
	nr := 0
	j.cluster.NN.ForEachLocation(b, func(node topology.NodeID, _ dfs.ReplicaKind) bool {
		j.nodeHeap(node).push(pendingRef{seq: seq, b: b})
		r := topo.Rack(node)
		for i := 0; i < nr; i++ {
			if racks[i] == r {
				return true
			}
		}
		if nr < len(racks) {
			racks[nr] = r
			nr++
		}
		j.rackHeap(r).push(pendingRef{seq: seq, b: b})
		return true
	})
}

// onReplicaAdded indexes a newly announced replica of a still-pending
// block.
func (j *Job) onReplicaAdded(b dfs.BlockID, node topology.NodeID) {
	if j.linearScan {
		return
	}
	seq, ok := j.pendingSeq[b]
	if !ok {
		return
	}
	j.nodeHeap(node).push(pendingRef{seq: seq, b: b})
	j.rackHeap(j.cluster.Topo.Rack(node)).push(pendingRef{seq: seq, b: b})
}

// onReplicaRemoved eagerly drops index entries for a removed replica of a
// still-pending block: the per-node entry always goes (that exact copy is
// gone), the rack-level entry only when no surviving replica of the block
// remains in that rack (a rack entry stands for "some replica in this
// rack"). The Take/Has paths still verify liveness against the name node,
// so correctness never depended on this — but eager removal keeps heaps
// from accumulating dead entries under heavy eviction and churn, and a
// removed replica can never again be offered as local.
func (j *Job) onReplicaRemoved(b dfs.BlockID, node topology.NodeID) {
	if j.linearScan {
		return
	}
	seq, ok := j.pendingSeq[b]
	if !ok {
		return
	}
	j.nodeHeap(node).remove(b, seq)
	topo := j.cluster.Topo
	rack := topo.Rack(node)
	// The name node publishes after the mutation, so the remaining
	// locations are the post-removal truth.
	stillInRack := false
	j.cluster.NN.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
		if topo.Rack(n) == rack {
			stillInRack = true
			return false
		}
		return true
	})
	if !stillInRack {
		j.rackHeap(rack).remove(b, seq)
	}
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

// live reports whether a heap/pending entry still refers to the current
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
// order) for determinism.
func (j *Job) TakeLocalBlock(node topology.NodeID) (dfs.BlockID, bool) {
	if j.linearScan {
		for _, e := range j.pending {
			if j.live(e) && j.cluster.NN.HasReplica(e.b, node) {
				j.dropPending(e.b)
				return e.b, true
			}
		}
		return 0, false
	}
	h := j.nodeHeap(node)
	for len(*h) > 0 {
		e := h.peek()
		if !j.live(e) || !j.cluster.NN.HasReplica(e.b, node) {
			h.pop()
			continue
		}
		h.pop()
		j.dropPending(e.b)
		return e.b, true
	}
	return 0, false
}

// rackReplica reports whether b has a replica in rack at all, and whether
// one of those replicas sits on a node other than skip.
func (j *Job) rackReplica(b dfs.BlockID, rack int, skip topology.NodeID) (inRack, eligible bool) {
	topo := j.cluster.Topo
	j.cluster.NN.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
		if topo.Rack(n) != rack {
			return true
		}
		inRack = true
		if n != skip {
			eligible = true
			return false
		}
		return true
	})
	return inRack, eligible
}

// TakeRackLocalBlock removes and returns a pending block with a replica in
// node's rack (but not on node itself).
func (j *Job) TakeRackLocalBlock(node topology.NodeID) (dfs.BlockID, bool) {
	rack := j.cluster.Topo.Rack(node)
	if j.linearScan {
		for _, e := range j.pending {
			if !j.live(e) {
				continue
			}
			if _, ok := j.rackReplica(e.b, rack, node); ok {
				j.dropPending(e.b)
				return e.b, true
			}
		}
		return 0, false
	}
	h := j.rackHeap(rack)
	j.rackKeep = j.rackKeep[:0]
	var taken dfs.BlockID
	found := false
	for len(*h) > 0 {
		e := h.peek()
		if !j.live(e) {
			h.pop()
			continue
		}
		inRack, eligible := j.rackReplica(e.b, rack, node)
		if !inRack {
			h.pop() // the rack lost its replica; the entry is stale
			continue
		}
		if !eligible {
			// Live but unusable for this node; park it and keep looking.
			j.rackKeep = append(j.rackKeep, h.pop())
			continue
		}
		h.pop()
		j.dropPending(e.b)
		taken, found = e.b, true
		break
	}
	for _, e := range j.rackKeep {
		h.push(e)
	}
	return taken, found
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
