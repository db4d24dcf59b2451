package mapreduce

import (
	"fmt"

	"dare/internal/dfs"
	"dare/internal/sim"
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

// plannedFailure is a failure registered before Run.
type plannedFailure struct {
	node topology.NodeID
	at   float64
}

// plannedRecovery is a node rejoin registered before Run.
type plannedRecovery struct {
	node topology.NodeID
	at   float64
}

// plannedRackFailure is a whole-rack failure registered before Run.
type plannedRackFailure struct {
	rack int
	at   float64
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
	t.failures = append(t.failures, plannedFailure{node: node, at: at})
}

// ScheduleNodeRecovery registers node to rejoin at simulated time `at`.
// Call before Run. Recovering an up node at fire time is a no-op.
func (t *Tracker) ScheduleNodeRecovery(node topology.NodeID, at float64) {
	t.recoveries = append(t.recoveries, plannedRecovery{node: node, at: at})
}

// ScheduleRackFailure registers every node of rack that is still up at
// simulated time `at` to fail together (switch failure). Call before Run.
func (t *Tracker) ScheduleRackFailure(rack int, at float64) {
	t.rackFailures = append(t.rackFailures, plannedRackFailure{rack: rack, at: at})
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

// scheduleInjectedChurn registers every planned failure, recovery, and
// rack failure with the engine. Run calls it once, before the heartbeat
// tickers start.
func (t *Tracker) scheduleInjectedChurn() error {
	eng := t.c.Eng
	for _, pf := range t.failures {
		pf := pf
		if int(pf.node) < 0 || int(pf.node) >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: failure scheduled for invalid node %d", pf.node)
		}
		eng.DeferAt(pf.at, func() { t.failNode(t.c.Nodes[pf.node]) })
	}
	for _, pr := range t.recoveries {
		pr := pr
		if int(pr.node) < 0 || int(pr.node) >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: recovery scheduled for invalid node %d", pr.node)
		}
		eng.DeferAt(pr.at, func() { t.nodeUp(t.c.Nodes[pr.node], false, nil) })
	}
	for _, prf := range t.rackFailures {
		prf := prf
		if prf.rack < 0 || prf.rack >= t.c.racks {
			return fmt.Errorf("mapreduce: failure scheduled for invalid rack %d", prf.rack)
		}
		eng.DeferAt(prf.at, func() { t.failRack(prf.rack) })
	}
	return nil
}

// blockWeights lazily builds the access-weight map used for weighted
// availability snapshots: each block weighs the number of map tasks that
// read it across the whole workload.
func (t *Tracker) blockWeights() map[dfs.BlockID]float64 {
	if t.weights != nil {
		return t.weights
	}
	w := make(map[dfs.BlockID]float64)
	for _, spec := range t.wl.Jobs {
		f := t.files[spec.File]
		for i := spec.FirstBlock; i < spec.FirstBlock+spec.NumMaps; i++ {
			w[f.Blocks[i]]++
		}
	}
	t.weights = w
	return w
}

// failNode executes one independent injected failure.
func (t *Tracker) failNode(node *Node) {
	if node.Up {
		t.nodeDown(node, -1)
		t.scheduleRepairs()
	}
}

// failRack executes one switch failure: every live node of the rack dies
// in the same instant, then a single repair round covers all of them.
func (t *Tracker) failRack(rack int) {
	for _, node := range t.c.Nodes { // Nodes is ID-ordered: deterministic
		if node.Up && t.c.Topo.Rack(node.ID) == rack {
			t.nodeDown(node, rack)
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
// master is down: recoverMaster schedules one for the deaths it replays.
func (t *Tracker) scheduleRepairs() {
	if t.repairDisabled || t.master.down {
		return
	}
	detect := 3 * t.c.Profile.HeartbeatInterval
	if at := t.c.Eng.Now() + detect; at > t.lastRepairAt {
		t.lastRepairAt = at
	}
	t.c.Eng.DeferTag(detect, repairScanTag{}, t.repairScan)
}

// repairScan is the deferred detection round of scheduleRepairs.
func (t *Tracker) repairScan() {
	queue := t.c.NN.UnderReplicated()
	// Two parallel repair streams, each copying one block at a time.
	const streams = 2
	slot := 0
	for _, b := range queue {
		if t.repairInFlight[b] {
			continue
		}
		t.repairInFlight[b] = true
		delay := t.repairBlockTime() * float64(slot/streams+1)
		slot++
		t.deferRepair(b, delay)
	}
}

// repairBlockTime is the modelled copy time of one block at mean network
// bandwidth.
func (t *Tracker) repairBlockTime() float64 {
	return float64(t.c.Profile.BlockSizeBytes()) / (t.c.Profile.NetBW.Mean() * float64(1<<20))
}

// deferRepair schedules repairBlock(b) after delay, extending the drain
// bound.
func (t *Tracker) deferRepair(b dfs.BlockID, delay float64) {
	if at := t.c.Eng.Now() + delay; at > t.lastRepairAt {
		t.lastRepairAt = at
	}
	t.c.Eng.DeferTag(delay, &repairBlockTag{b: b}, func() { t.repairBlock(b, 0) })
}

// repairBlock copies one replica of b onto a fresh node, if b still needs
// it. A block short by more than one replica (rack failure) chains another
// copy rather than waiting for a future failure's repair round. If the
// master is down when the copy would register, the stream retries with
// capped exponential backoff (outageRetry counts consecutive retries).
func (t *Tracker) repairBlock(b dfs.BlockID, outageRetry int) {
	delete(t.repairInFlight, b)
	if t.master.down {
		t.repairInFlight[b] = true
		delay := t.masterRetryDelay(outageRetry)
		if at := t.c.Eng.Now() + delay; at > t.lastRepairAt {
			t.lastRepairAt = at
		}
		t.c.Eng.DeferTag(delay, &repairBlockTag{b: b, retry: outageRetry + 1},
			func() { t.repairBlock(b, outageRetry+1) })
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
		t.deferRepair(b, t.repairBlockTime())
	}
}
