package mapreduce

import (
	"math"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/topology"
)

// Task execution: attempt launch, completion, and the cost model glue.
// Each launch/complete/fail transition is published on the cluster bus,
// where the replication policy and the observers hear it; the tracker's
// own reactions (speculation, retry/backoff) are direct calls after the
// publish.

// classify determines the locality level of running block b on node.
func (t *Tracker) classify(b dfs.BlockID, node topology.NodeID) Locality {
	if t.c.NN.HasReplica(b, node) {
		return NodeLocal
	}
	rack := t.c.Topo.Rack(node)
	inRack := false
	t.c.NN.ForEachLocation(b, func(loc topology.NodeID, _ dfs.ReplicaKind) bool {
		if t.c.Topo.Rack(loc) == rack {
			inRack = true
			return false
		}
		return true
	})
	if inRack {
		return RackLocal
	}
	return Remote
}

// launchMap starts the first attempt of a new map task (attempt group).
func (t *Tracker) launchMap(node *Node, j *Job, b dfs.BlockID) {
	g := &taskGroup{job: j, block: b, started: t.c.Eng.Now(), recs: make(map[*taskRec]bool, 1)}
	t.spec.observe(g)
	t.launchAttempt(node, g)
}

// launchAttempt starts one attempt (original or speculative backup) of the
// group's map task on node.
func (t *Tracker) launchAttempt(node *Node, g *taskGroup) {
	j := g.job
	b := g.block
	blk := t.c.NN.Block(b)
	loc := t.classify(b, node.ID)
	local := loc == NodeLocal

	// "if a map task is scheduled" (Algorithms 1 and 2): the TaskLaunch
	// event fires before read-time modelling — speculative attempts are
	// scheduled map tasks too. A subscribed DARE manager may announce or
	// evict replicas during this publish, exactly as the old direct hook
	// call allowed.
	ev := event.New(event.TaskLaunch)
	ev.Job = int32(j.Spec.ID)
	ev.Block = int64(b)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	ev.File = int32(blk.File)
	ev.Aux = blk.Size
	ev.Flag = local
	t.bus.Publish(ev)

	read := t.grayRead(j, node, b, blk.Size)
	// SlowFactor stretches the whole attempt on a gray-degraded node
	// (exactly 1.0 on healthy nodes, so the multiplication is bit-exact).
	dur := (math.Max(read, j.Spec.CPUPerTask) + t.c.Profile.TaskOverhead) * t.c.taskNoise() * node.SlowFactor

	if !local {
		j.remoteBytes += blk.Size
	}
	node.FreeMapSlots--
	j.runningMaps++
	if j.firstTaskTime < 0 {
		j.firstTaskTime = t.c.Eng.Now()
	}
	rec := &taskRec{job: j, block: b, isMap: true, group: g, node: node, loc: loc, dur: dur}
	g.recs[rec] = true
	// Owned: the tracker serializes in-flight attempts itself (state.go).
	rec.ev = t.c.Eng.ScheduleTag(dur, sim.Owned, func() { t.completeAttempt(rec) })
	t.track(node, rec)
}

// completeAttempt finishes the winning attempt of a map-task group. Any
// sibling backup still running is killed by the speculator; an injected
// task failure is published, then handed to the failure handler to blame
// and requeue.
func (t *Tracker) completeAttempt(rec *taskRec) {
	g := rec.group
	t.untrack(rec.node, rec)
	delete(g.recs, rec)
	rec.node.FreeMapSlots++
	g.job.runningMaps--
	if g.done {
		return
	}
	// Injected task failure (flaky disk/JVM): the attempt's work is
	// discarded. Flag=true blames the node; Aux=1 asks for a requeue
	// because no sibling attempt survives elsewhere.
	if t.faults.injectedFailure() {
		fe := event.New(event.TaskFail)
		fe.Job = int32(g.job.Spec.ID)
		fe.Block = int64(g.block)
		fe.Node = int32(rec.node.ID)
		fe.Rack = int32(t.c.Topo.Rack(rec.node.ID))
		fe.Flag = true
		if len(g.recs) == 0 {
			fe.Aux = 1
		}
		t.bus.Publish(fe)
		t.faults.taskFailed(fe)
		return
	}
	g.done = true
	raced := len(g.recs) > 0
	t.spec.killSiblings(g)
	ev := event.New(event.TaskComplete)
	ev.Job = int32(g.job.Spec.ID)
	ev.Block = int64(g.block)
	ev.Node = int32(rec.node.ID)
	ev.Rack = int32(t.c.Topo.Rack(rec.node.ID))
	ev.Aux = int64(rec.loc)
	ev.Flag = raced
	t.bus.Publish(ev)
	t.finishMap(g.job, rec.loc, rec.dur)
}

// track and untrack maintain the in-flight task set used by failure
// injection.
func (t *Tracker) track(node *Node, rec *taskRec) {
	set := t.inflight[node]
	if set == nil {
		set = make(map[*taskRec]bool)
		t.inflight[node] = set
	}
	set[rec] = true
}

func (t *Tracker) untrack(node *Node, rec *taskRec) {
	if set := t.inflight[node]; set != nil {
		delete(set, rec)
	}
}

func (t *Tracker) finishMap(j *Job, loc Locality, dur float64) {
	j.mapCompleted()
	j.mapTimeSum += dur
	switch loc {
	case NodeLocal:
		j.localMaps++
	case RackLocal:
		j.rackMaps++
	default:
		j.remoteMaps++
	}
	if j.MapsDone() && j.Spec.NumReduces == 0 {
		t.finishJob(j)
	}
}

func (t *Tracker) launchReduce(node *Node, j *Job) {
	ev := event.New(event.TaskLaunch)
	ev.Job = int32(j.Spec.ID)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	t.bus.Publish(ev) // Block stays -1: reduces have no input block
	node.FreeReduceSlots--
	j.startReduce()
	write := t.c.OutputWriteTime(node.ID, j.outputBlocksPerReduce())
	dur := (j.Spec.ReduceTime + write + t.c.Profile.TaskOverhead) * t.c.taskNoise() * node.SlowFactor
	j.outputBytes += j.outputNetworkBytesPerReduce(t.c.Profile)
	rec := &taskRec{job: j, isMap: false}
	// Owned: the tracker serializes in-flight attempts itself (state.go).
	rec.ev = t.c.Eng.ScheduleTag(dur, sim.Owned, func() {
		t.untrack(node, rec)
		t.finishReduce(node, j)
	})
	t.track(node, rec)
}

func (t *Tracker) finishReduce(node *Node, j *Job) {
	node.FreeReduceSlots++
	j.runningReduces--
	j.finishedReduces++
	ev := event.New(event.TaskComplete)
	ev.Job = int32(j.Spec.ID)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	t.bus.Publish(ev) // Block stays -1: a reduce completion
	if j.MapsDone() && j.finishedReduces == j.Spec.NumReduces {
		t.finishJob(j)
	}
}
