package mapreduce

import (
	"slices"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/topology"
)

// The node lifecycle: every death and rejoin — crash, switch failure,
// flap, scheduled rejoin, flap rejoin — goes through nodeDown or nodeUp.
// Each has a data-plane half that happens whatever the master's state
// (the process dies or boots: tasks, slots, heartbeats) and a master half
// that only a live master can perform (declareDead, declareUp: the name
// node's verdict and the recorded snapshot). While the master is down the
// master half waits in master.pending, in arrival order, and the master
// recovery replays it through the same two functions. These are the only
// callers of the name node's lifecycle methods and of the heartbeat
// driver's Stop and Resume.

// nodeDown takes a live node down. rack tags a switch failure (-1 for an
// independent one). A dead node is not schedulable, so its blacklist
// verdict goes with it; declareUp also forgives its failure count on
// rejoin.
func (t *Tracker) nodeDown(node *Node, rack int) {
	node.Up = false
	t.c.setBlacklisted(node, false)
	// Stop the node's heartbeat: no new tasks land there. The driver is
	// nil before Run and its Stop is a no-op then.
	t.hb.Stop(node.ID)
	ev := FailureEvent{Node: node.ID, Rack: rack}
	ev.KilledMaps, ev.KilledReduces = t.killAttempts(node, false)
	if t.master.down {
		// The node really dies, but no master is there to declare it dead:
		// the metadata scrub waits for recovery, which records the failure
		// as an independent one.
		t.master.queue(node.ID, false)
		return
	}
	t.declareDead(ev)
}

// nodeUp boots a down node and re-registers it with the name node: empty
// after a crash, or reconciling the stale block report of a flap rejoin
// (flap). A live master registers only a node it declared dead; a down
// master queues the registration of a crash rejoin.
func (t *Tracker) nodeUp(node *Node, flap bool, stale []dfs.StaleReplica) {
	if node.Up {
		return
	}
	if t.master.down && !flap {
		t.boot(node)
		t.master.queue(node.ID, true)
		return
	}
	if !t.c.NN.NodeFailed(node.ID) {
		return // tracker and name node views diverged (invariant check will flag it)
	}
	t.boot(node)
	if t.master.down {
		// ROADMAP fault-interplay defect 1: a flap rejoin during an outage
		// boots, but its registration is neither made nor queued, because
		// a pending event has no room for the stale report. The node then
		// runs up while the name node still lists it as failed.
		return
	}
	t.declareUp(node.ID, stale)
	// A rejoin can give repairs a target they lacked and raises the
	// replication floor min(replication, up nodes).
	t.scheduleRepairs()
}

// boot brings a node's process back: slots return to the scheduler, gray
// degradation ends with the old process, and the heartbeat falls back into
// its original cadence (next beat at its next grid instant), as a
// restarted task tracker re-syncs to the job tracker's schedule.
// ActiveRemoteReads is left alone: pending fetch-end events still fire and
// decrement it.
func (t *Tracker) boot(node *Node) {
	node.Up = true
	node.FreeMapSlots = t.c.Profile.MapSlotsPerNode
	node.FreeReduceSlots = t.c.Profile.ReduceSlotsPerNode
	node.SlowFactor, node.DiskFactor = 1, 1
	t.hb.Resume(node.ID)
}

// declareDead is the master's death verdict: the name node scrubs the
// node's replicas and ev, filled with the metadata impact and an
// availability snapshot, is recorded. The invariant checker, when
// enabled, runs on the NodeFail event FailNode publishes.
func (t *Tracker) declareDead(ev FailureEvent) {
	ev.Time = t.c.Eng.Now()
	ev.Report = t.c.NN.FailNode(ev.Node)
	ev.AvailableBlocks, ev.TotalBlocks = t.c.NN.Availability()
	ev.WeightedAvailability = t.c.NN.WeightedAvailability(t.blockWeights())
	ev.Backlog = len(t.c.NN.UnderReplicated())
	t.failureEvents = append(t.failureEvents, ev)
}

// declareUp re-registers a node the master declared dead, reconciling its
// stale block report (nil for an empty rejoin), forgives its blacklist
// verdict and failure count, and records the rejoin. It runs after boot,
// so the NodeRecover event ReRegisterNode publishes finds the tracker and
// metadata views already consistent, and the invariant checker runs
// during that publish. A node the master never declared dead is not
// registered.
func (t *Tracker) declareUp(id topology.NodeID, stale []dfs.StaleReplica) {
	restored, err := t.c.NN.ReRegisterNode(id, stale)
	if err != nil {
		return
	}
	t.faults.forgive(id)
	t.gray.stats.ReplicasRestored += restored
	t.recoveryEvents = append(t.recoveryEvents, RecoveryEvent{
		Time:                 t.c.Eng.Now(),
		Node:                 id,
		Restored:             restored,
		Backlog:              len(t.c.NN.UnderReplicated()),
		WeightedAvailability: t.c.NN.WeightedAvailability(t.blockWeights()),
	})
}

// queue defers a death (recover=false) or a rejoin's registration until
// the master recovers, and marks the node's tracker state as diverged from
// the master's frozen view (invariant check 2 relaxes for it).
func (m *masterState) queue(node topology.NodeID, recover bool) {
	m.pending = append(m.pending, pendingNodeEvent{node: node, recover: recover})
	m.unobserved[node] = true
}

// killAttempts kills every in-flight attempt on node, in byRecOrder (the
// published task-fail sequence is observable), and requeues the work with
// attempt accounting. freeSlots returns each attempt's slot: a master
// crash kills attempts on nodes that stay up. Returns the killed counts.
func (t *Tracker) killAttempts(node *Node, freeSlots bool) (maps, reduces int) {
	recs := t.inflight[node]
	if len(recs) == 0 {
		return 0, 0
	}
	ordered := make([]*taskRec, 0, len(recs))
	for r := range recs {
		ordered = append(ordered, r)
	}
	slices.SortFunc(ordered, byRecOrder)
	for _, r := range ordered {
		t.c.Eng.Cancel(r.ev)
		fe := event.New(event.TaskFail)
		fe.Job = int32(r.job.Spec.ID)
		fe.Node = int32(node.ID)
		fe.Rack = int32(t.c.Topo.Rack(node.ID))
		// Flag stays false: neither a node death nor a master crash is the
		// node's fault in blacklist terms (matching Hadoop: only
		// flaky-attempt blame counts toward the blacklist).
		if r.isMap {
			r.job.runningMaps--
			delete(r.group.recs, r)
			fe.Block = int64(r.block)
			// Aux=1 asks the failure handler to requeue: no sibling
			// attempt survives elsewhere.
			if !r.group.done && len(r.group.recs) == 0 {
				fe.Aux = 1
			}
			if freeSlots {
				node.FreeMapSlots++
			}
			maps++
		} else {
			r.job.requeueReduce()
			if freeSlots {
				node.FreeReduceSlots++
			}
			reduces++
		}
		t.bus.Publish(fe)
		t.faults.taskFailed(fe)
	}
	delete(t.inflight, node)
	return maps, reduces
}
