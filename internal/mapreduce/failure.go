package mapreduce

import (
	"fmt"

	"dare/internal/dfs"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/topology"
)

// Failure injection: the tracker can kill data nodes mid-run — singly or a
// whole rack at once (switch failure) — and rejoin them later. A failed
// node stops heartbeating, its running tasks die and are re-queued (as the
// Hadoop job tracker does on task-tracker timeout), its replicas vanish
// from the name node, and — unless repair is disabled — the name node
// re-replicates under-replicated blocks onto survivors after a detection
// delay, HDFS-style. A recovered node re-registers empty: its heartbeat
// ticker restarts, its slots return to the scheduler, and it becomes a
// placement/repair target again.
//
// Task attempts are bounded: a map input whose attempts keep dying is
// re-queued with exponential backoff and, past the attempt limit, fails its
// whole job (mapred.map.max.attempts semantics). Nodes that keep failing
// attempts are blacklisted until they recover.

// FailureEvent records the cluster state right after one injected failure.
type FailureEvent struct {
	Time float64
	Node topology.NodeID
	// Rack is the rack index when this failure was part of a whole-rack
	// (switch) failure, -1 for an independent single-node failure.
	Rack int
	// KilledMaps and KilledReduces count the running tasks that died and
	// were re-queued.
	KilledMaps, KilledReduces int
	// Report is the name node's metadata impact.
	Report dfs.FailureReport
	// AvailableBlocks/TotalBlocks snapshot block availability immediately
	// after the failure, before any repair.
	AvailableBlocks, TotalBlocks int
	// WeightedAvailability snapshots the access-weighted availability at
	// the same instant (§IV-B's availability claim is about hot data).
	WeightedAvailability float64
	// Backlog is the repair queue depth (under-replicated blocks) right
	// after the failure.
	Backlog int
	// Flap marks a false-dead declaration (gray failure): the node was
	// never actually down and rejoins shortly with its disk intact.
	Flap bool
}

// RecoveryEvent records the cluster state right after one node rejoin.
type RecoveryEvent struct {
	Time float64
	Node topology.NodeID
	// Backlog is the repair queue depth right after the rejoin. A rejoin
	// can *grow* the queue: with more nodes up, min(replication, up) rises.
	Backlog int
	// WeightedAvailability at the rejoin (monotone non-increasing across a
	// run when rejoins are empty; a flap rejoin restores replicas and can
	// raise it).
	WeightedAvailability float64
	// Restored counts the stale replicas reconciled back into the registry
	// on a flap rejoin (0 for a crash recovery: those re-register empty).
	Restored int
}

// taskRec tracks one in-flight task attempt for cancellation on node
// failure and for speculative-execution bookkeeping.
type taskRec struct {
	job   *Job
	block dfs.BlockID // map tasks only
	isMap bool
	ev    *sim.Event
	// Map-task attempt metadata.
	group *taskGroup
	node  *Node
	loc   Locality
	dur   float64
}

// taskGroup is one logical map task with its (1..2) running attempts.
type taskGroup struct {
	job     *Job
	block   dfs.BlockID
	started float64
	done    bool
	recs    map[*taskRec]bool
}

// ScheduleNodeFailure registers node to fail at simulated time `at`. Call
// before Run. Repairs are scheduled automatically unless DisableRepair was
// called.
func (t *Tracker) ScheduleNodeFailure(node topology.NodeID, at float64) {
	t.plan(injectFailure, at, nodeFailure{node: node})
}

// ScheduleNodeRecovery registers node to rejoin at simulated time `at`.
// Call before Run. Recovering an up node at fire time is a no-op.
func (t *Tracker) ScheduleNodeRecovery(node topology.NodeID, at float64) {
	t.plan(injectRecovery, at, nodeRecovery{node: node})
}

// ScheduleRackFailure registers every node of rack that is still up at
// simulated time `at` to fail together (switch failure). Call before Run.
func (t *Tracker) ScheduleRackFailure(rack int, at float64) {
	t.plan(injectRackFailure, at, rackFailure{rack: rack})
}

// DisableRepair turns off automatic re-replication after failures (used
// by availability experiments that measure the pre-repair state).
func (t *Tracker) DisableRepair() { t.repairDisabled = true }

// FailureEvents returns the recorded failure snapshots, in time order.
func (t *Tracker) FailureEvents() []FailureEvent { return t.failureEvents }

// RecoveryEvents returns the recorded rejoin snapshots, in time order.
func (t *Tracker) RecoveryEvents() []RecoveryEvent { return t.recoveryEvents }

// RepairsDone reports how many block re-replications completed.
func (t *Tracker) RepairsDone() int { return t.repairsDone }

// blockWeights lazily builds the access-weight vector used for weighted
// availability snapshots: each block weighs the number of map tasks that
// read it across the whole workload.
func (t *Tracker) blockWeights() []float64 {
	if t.weights == nil {
		t.weights = t.c.NN.BlockWeights(t.files, t.wl.BlockAccessCounts())
	}
	return t.weights
}

// nodeFailure is one independent injected failure.
type nodeFailure struct{ node topology.NodeID }

func (f nodeFailure) check(t *Tracker) error { return t.checkNode(f.node, "failure scheduled for") }

func (f nodeFailure) fire(t *Tracker) {
	if node := t.c.Nodes[f.node]; node.Up {
		t.nodeDown(node, -1)
		t.scheduleRepairs()
	}
}

// nodeRecovery is one injected rejoin: the node boots empty.
type nodeRecovery struct{ node topology.NodeID }

func (r nodeRecovery) check(t *Tracker) error { return t.checkNode(r.node, "recovery scheduled for") }
func (r nodeRecovery) fire(t *Tracker)        { t.nodeUp(t.c.Nodes[r.node], false, nil) }

// rackFailure is one switch failure: every live node of the rack dies in
// the same instant, then a single repair round covers all of them.
type rackFailure struct{ rack int }

func (f rackFailure) check(t *Tracker) error {
	if f.rack < 0 || f.rack >= t.c.Topo.Racks() {
		return fmt.Errorf("mapreduce: failure scheduled for invalid rack %d", f.rack)
	}
	return nil
}

func (f rackFailure) fire(t *Tracker) {
	for _, id := range t.c.Topo.RackMembers(f.rack) { // ascending IDs: deterministic
		if node := t.c.Nodes[id]; node.Up {
			t.nodeDown(node, f.rack)
		}
	}
	t.scheduleRepairs()
}

// scheduleRepairs runs one HDFS-style re-replication round: after the
// detection delay (missed heartbeats), under-replicated blocks are copied
// to surviving nodes, staggered to model limited re-replication
// parallelism. Blocks already queued by an overlapping earlier round are
// skipped — a second failure during the detection window must not
// double-copy them. There is no round with repair disabled, nor while the
// master is down: the master's recovery schedules one for the deaths it
// replays.
func (t *Tracker) scheduleRepairs() {
	if t.repairDisabled || t.master.down {
		return
	}
	t.repairAfter(3*t.c.Profile.HeartbeatInterval, repairScanTag{})
}

// repairAfter schedules repair work d after delay, extending the bound
// RunWith drains the repair queue to.
func (t *Tracker) repairAfter(delay float64, d deferral) {
	if at := t.c.Eng.Now() + delay; at > t.lastRepairAt {
		t.lastRepairAt = at
	}
	t.after(delay, d)
}

// repairScanTag is the deferred detection round of scheduleRepairs.
type repairScanTag struct{}

func (repairScanTag) TagKind() uint16            { return TagRepairScan }
func (repairScanTag) WalkTag(w *snapshot.Walker) {}
func (repairScanTag) check(*Tracker) error       { return nil }

func (repairScanTag) fire(t *Tracker) {
	queue := t.c.NN.UnderReplicated()
	// Two parallel repair streams, each copying one block at a time.
	const streams = 2
	slot := 0
	for _, b := range queue {
		if t.repairInFlight[b] {
			continue
		}
		t.repairInFlight[b] = true
		t.repairAfter(t.repairBlockTime()*float64(slot/streams+1), &repairBlockTag{b: b})
		slot++
	}
}

// repairBlockTime is the modelled copy time of one block at mean network
// bandwidth.
func (t *Tracker) repairBlockTime() float64 {
	return float64(t.c.Profile.BlockSizeBytes()) / (t.c.Profile.NetBW.Mean() * float64(1<<20))
}

// repairBlockTag copies one replica of b onto a fresh node, if b still
// needs it. A block short by more than one replica (rack failure) chains
// another copy rather than waiting for a future failure's repair round.
// If the master is down when the copy would register, the stream retries
// with capped exponential backoff (retry counts consecutive retries).
type repairBlockTag struct {
	b     dfs.BlockID
	retry int
}

func (r *repairBlockTag) TagKind() uint16 { return TagRepairBlock }
func (r *repairBlockTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &r.b)
	snapshot.Int(w, &r.retry)
}
func (r *repairBlockTag) check(*Tracker) error { return nil }

func (r *repairBlockTag) fire(t *Tracker) {
	b := r.b
	delete(t.repairInFlight, b)
	if t.master.down {
		t.repairInFlight[b] = true
		t.repairAfter(t.masterRetryDelay(r.retry), &repairBlockTag{b: b, retry: r.retry + 1})
		return
	}
	if !t.c.NN.IsUnderReplicated(b) {
		return // repaired by a concurrent stream, or lost entirely
	}
	target, ok := t.c.NN.RepairTarget(b)
	if !ok {
		return
	}
	if err := t.c.NN.AddPrimaryReplica(b, target); err != nil {
		return
	}
	t.repairsDone++
	if t.c.NN.IsUnderReplicated(b) {
		t.repairInFlight[b] = true
		t.repairAfter(t.repairBlockTime(), &repairBlockTag{b: b})
	}
}
