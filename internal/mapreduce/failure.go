package mapreduce

import (
	"fmt"
	"sort"

	"dare/internal/dfs"
	"dare/internal/event"
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
		eng.DeferAt(pr.at, func() { t.recoverNode(t.c.Nodes[pr.node]) })
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

// failNode executes one independent injected failure. The invariant
// checker (when enabled) fires on the NodeFail event the name node
// publishes inside killNode.
func (t *Tracker) failNode(node *Node) {
	if !node.Up {
		return
	}
	if t.master.down {
		// Data plane only: the node really dies — its tasks are lost and
		// its heartbeats stop — but no master is there to declare it dead,
		// so the metadata scrub and repair wait for recovery.
		t.killNodeDataPlane(node)
		t.master.pending = append(t.master.pending, pendingNodeEvent{node: node.ID})
		t.master.unobserved[node.ID] = true
		return
	}
	t.killNode(node, -1)
	if !t.repairDisabled {
		t.scheduleRepairs()
	}
}

// failRack executes one switch failure: every live node of the rack dies
// in the same instant, then a single repair round covers all of them.
func (t *Tracker) failRack(rack int) {
	for _, node := range t.c.Nodes { // Nodes is ID-ordered: deterministic
		if node.Up && t.c.Topo.Rack(node.ID) == rack {
			t.killNode(node, rack)
		}
	}
	if !t.repairDisabled {
		t.scheduleRepairs()
	}
}

// killNode takes one node down: heartbeat stops, in-flight tasks die and
// re-queue (with attempt accounting), metadata is scrubbed, and the event
// is recorded. rack tags rack-correlated failures (-1 for independent).
func (t *Tracker) killNode(node *Node, rack int) {
	ev := FailureEvent{Time: t.c.Eng.Now(), Node: node.ID, Rack: rack}
	ev.KilledMaps, ev.KilledReduces = t.killNodeDataPlane(node)

	// Metadata impact + availability snapshot.
	ev.Report = t.c.NN.FailNode(node.ID)
	ev.AvailableBlocks, ev.TotalBlocks = t.c.NN.Availability()
	ev.WeightedAvailability = t.c.NN.WeightedAvailability(t.blockWeights())
	ev.Backlog = len(t.c.NN.UnderReplicated())
	t.failureEvents = append(t.failureEvents, ev)
}

// killNodeDataPlane takes the node's process down — heartbeats stop, its
// in-flight attempts die and re-queue — without touching the name node.
// killNode layers the metadata scrub and snapshot on top; during a master
// outage the scrub is deferred until the master recovers (failNode queues a
// pending event instead). A dead node is not schedulable either way, so
// its blacklist verdict goes with it; NodeRecover also forgives its
// failure count on rejoin. Returns the killed task counts.
func (t *Tracker) killNodeDataPlane(node *Node) (killedMaps, killedReduces int) {
	node.Up = false
	node.Blacklisted = false
	// Stop the node's heartbeat: no new tasks land there. The driver is
	// nil before Run and its Stop is a no-op then.
	t.hb.Stop(node.ID)

	// Kill in-flight tasks and requeue their work.
	recs := t.inflight[node]
	ordered := make([]*taskRec, 0, len(recs))
	for r := range recs {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].isMap != ordered[j].isMap {
			return ordered[i].isMap
		}
		if ordered[i].block != ordered[j].block {
			return ordered[i].block < ordered[j].block
		}
		// Reduce recs all carry the zero block: order them by job so the
		// published task-fail sequence is deterministic (the bookkeeping
		// itself is order-independent, but the trace observes the order).
		return ordered[i].job.Spec.ID < ordered[j].job.Spec.ID
	})
	for _, r := range ordered {
		t.c.Eng.Cancel(r.ev)
		fe := event.New(event.TaskFail)
		fe.Job = int32(r.job.Spec.ID)
		fe.Node = int32(node.ID)
		fe.Rack = int32(t.c.Topo.Rack(node.ID))
		// Flag stays false: a node death is not the node's "fault" in
		// blacklist terms (matching Hadoop — only flaky-attempt blame
		// counts toward the blacklist).
		if r.isMap {
			r.job.runningMaps--
			delete(r.group.recs, r)
			fe.Block = int64(r.block)
			// Aux=1 asks the failure handler to requeue: no sibling
			// attempt survives elsewhere.
			if !r.group.done && len(r.group.recs) == 0 {
				fe.Aux = 1
			}
			killedMaps++
		} else {
			r.job.requeueReduce()
			killedReduces++
		}
		t.bus.Publish(fe)
	}
	delete(t.inflight, node)
	return killedMaps, killedReduces
}

// recoverNode executes one scheduled rejoin: HDFS-style re-registration.
// The node comes back empty (the name node already scrubbed its replicas),
// its slots return to the scheduler, its heartbeat ticker restarts, and any
// blacklist verdict is forgiven. A repair round follows because a rejoin
// can both enable repairs that had no target and raise the replication
// floor min(replication, up nodes).
func (t *Tracker) recoverNode(node *Node) {
	if t.master.down {
		if node.Up {
			return
		}
		// The node boots and idles: slots and heartbeats return, but the
		// master registration waits for recovery.
		node.Up = true
		node.FreeMapSlots = t.c.Profile.MapSlotsPerNode
		node.FreeReduceSlots = t.c.Profile.ReduceSlotsPerNode
		node.SlowFactor, node.DiskFactor = 1, 1
		t.hb.Resume(node.ID)
		t.master.pending = append(t.master.pending, pendingNodeEvent{node: node.ID, recover: true})
		t.master.unobserved[node.ID] = true
		return
	}
	if node.Up || !t.c.NN.NodeFailed(node.ID) {
		return // up, or tracker and name node views diverged (invariant check will flag it)
	}
	node.Up = true
	node.FreeMapSlots = t.c.Profile.MapSlotsPerNode
	node.FreeReduceSlots = t.c.Profile.ReduceSlotsPerNode
	// A restarted node comes back healthy: any gray degradation ends with
	// the old process (both factors are already 1 unless the gray injector
	// ran, so this is golden-safe).
	node.SlowFactor, node.DiskFactor = 1, 1
	// ActiveRemoteReads is intentionally left alone: pending fetch-end
	// events still fire and decrement it.
	// The rejoining node falls back into its original heartbeat cadence
	// (next beat at its next grid instant), matching how a restarted task
	// tracker re-syncs to the job tracker's reporting schedule.
	t.hb.Resume(node.ID)
	// Re-register with the name node last: its NodeRecover event then
	// finds the tracker and metadata views already consistent — the
	// failure handler forgives the blacklist and the invariant checker
	// runs during this publish.
	if err := t.c.NN.RecoverNode(node.ID); err != nil {
		return // unreachable: guarded above
	}
	t.recoveryEvents = append(t.recoveryEvents, RecoveryEvent{
		Time:                 t.c.Eng.Now(),
		Node:                 node.ID,
		Backlog:              len(t.c.NN.UnderReplicated()),
		WeightedAvailability: t.c.NN.WeightedAvailability(t.blockWeights()),
	})
	if !t.repairDisabled {
		t.scheduleRepairs()
	}
}

// scheduleRepairs runs one HDFS-style re-replication round: after the
// detection delay (missed heartbeats), under-replicated blocks are copied
// to surviving nodes, staggered to model limited re-replication
// parallelism. Blocks already queued by an overlapping earlier round are
// skipped — a second failure during the detection window must not
// double-copy them.
func (t *Tracker) scheduleRepairs() {
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
	t.c.Eng.DeferTag(delay, repairBlockTag{b: b}, func() { t.repairBlock(b, 0) })
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
		t.c.Eng.DeferTag(delay, repairBlockTag{b: b, retry: outageRetry + 1},
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
