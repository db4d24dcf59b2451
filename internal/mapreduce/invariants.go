package mapreduce

import (
	"fmt"
	"slices"

	"dare/internal/event"
)

// invariantChecker runs the full cross-layer invariant check after every
// node-lifecycle event. It only observes, so it is the one tracker
// component on the bus: the name node publishes NodeFail/NodeRecover at
// the end of its own mutation, so the checker judges the metadata right
// after it changes. The first violation latches, aborts the run, and
// stops the engine.
// Disabled by default (SetInvariantChecks); it replaces the tracker's old
// checkAfterEvent calls, which each churn path had to remember to make.
//
// Note a deliberate cadence difference from the old inline calls: a rack
// failure now checks once per killed node (each FailNode publish) rather
// than once after the whole rack — strictly more checking, and output-
// invariant because a passing check has no observable effect.
type invariantChecker struct {
	t       *Tracker
	enabled bool
	err     error
}

// checkedKinds are the fault kinds after which the checker runs.
var checkedKinds = []event.Kind{event.NodeFail, event.NodeRecover, event.NodeDegrade,
	event.NodeRestore, event.ReplicaCorrupt, event.MasterRecover}

// Kinds implements event.KindFilter.
func (c *invariantChecker) Kinds() []event.Kind { return checkedKinds }

// HandleEvent implements event.Subscriber.
func (c *invariantChecker) HandleEvent(ev event.Event) {
	if !slices.Contains(checkedKinds, ev.Kind) {
		return
	}
	if !c.enabled || c.err != nil {
		return
	}
	if err := c.t.CheckInvariants(); err != nil {
		c.err = fmt.Errorf("mapreduce: invariant violated at t=%g: %w", c.t.c.Eng.Now(), err)
		c.t.c.Eng.Stop()
	}
}

// SetInvariantChecks makes the tracker run the full metadata invariant
// checker after every node failure/recovery event; the first violation
// aborts the run with its error. Call before Run.
func (t *Tracker) SetInvariantChecks(v bool) { t.checker.enabled = v }

// CheckInvariants validates cross-layer consistency between the name node,
// the tracker's node view, and the jobs' task accounting. The churn
// harness runs it after every injected failure/recovery event; tests run
// it after whole simulations. It is O(cluster + blocks + tasks) and exists
// for correctness checking, not the hot path.
func (t *Tracker) CheckInvariants() error {
	// 1. Name-node metadata: mirror maps, byte accounting, replication
	// floor, no replicas on down nodes.
	if err := t.c.NN.CheckInvariants(); err != nil {
		return err
	}
	// 2. Tracker node state mirrors the name node's failure set, slot
	// accounting stays within bounds, and the blacklist count matches the
	// flags.
	blacklisted := 0
	for _, node := range t.c.Nodes {
		if node.Blacklisted {
			blacklisted++
		}
		if t.master.unobserved[node.ID] {
			// The node died or rejoined while the master was down: the
			// tracker saw it, the recovering master has not applied it yet.
			// The divergence is the modelled reality, not a bug.
			continue
		}
		if node.Up == t.c.NN.NodeFailed(node.ID) {
			return fmt.Errorf("mapreduce: node %d up=%v disagrees with name node failed=%v",
				node.ID, node.Up, t.c.NN.NodeFailed(node.ID))
		}
		if node.FreeMapSlots < 0 || node.FreeMapSlots > t.c.Profile.MapSlotsPerNode {
			return fmt.Errorf("mapreduce: node %d has %d free map slots (max %d)",
				node.ID, node.FreeMapSlots, t.c.Profile.MapSlotsPerNode)
		}
		if node.FreeReduceSlots < 0 || node.FreeReduceSlots > t.c.Profile.ReduceSlotsPerNode {
			return fmt.Errorf("mapreduce: node %d has %d free reduce slots (max %d)",
				node.ID, node.FreeReduceSlots, t.c.Profile.ReduceSlotsPerNode)
		}
		if node.Blacklisted && !node.Up {
			return fmt.Errorf("mapreduce: down node %d is blacklisted", node.ID)
		}
	}
	if blacklisted != t.c.blacklisted {
		return fmt.Errorf("mapreduce: %d nodes blacklisted but the count says %d", blacklisted, t.c.blacklisted)
	}
	// 3. Task conservation: the tracker's in-flight attempt set, each job's
	// running counter, and the pending/completed accounting must agree — a
	// gray injection (flap kill, corrupt-read retry) that leaks or
	// double-counts a task shows up here.
	runningAttempts := make(map[*Job]int)
	liveGroups := make(map[*taskGroup]bool)
	for _, recs := range t.inflight {
		for r := range recs {
			if !r.isMap {
				continue
			}
			runningAttempts[r.job]++
			if !r.group.done {
				liveGroups[r.group] = true
			}
		}
	}
	groupsPerJob := make(map[*Job]int, len(liveGroups))
	for g := range liveGroups {
		groupsPerJob[g.job]++
	}
	for _, j := range t.active {
		if runningAttempts[j] != j.RunningMaps() {
			return fmt.Errorf("mapreduce: job %d: %d in-flight map attempts but runningMaps=%d",
				j.ID(), runningAttempts[j], j.RunningMaps())
		}
		if j.RunningMaps() < 0 || j.CompletedMaps() < 0 || j.PendingMaps() < 0 {
			return fmt.Errorf("mapreduce: job %d: negative task counter (running=%d completed=%d pending=%d)",
				j.ID(), j.RunningMaps(), j.CompletedMaps(), j.PendingMaps())
		}
		// Completed + pending + live groups can undershoot NumMaps (a
		// killed/failed task sits in backoff limbo, neither pending nor
		// running) but never overshoot: that would mean a map is both done
		// and queued, i.e. duplicated work.
		if total := j.CompletedMaps() + j.PendingMaps() + groupsPerJob[j]; total > j.Spec.NumMaps {
			return fmt.Errorf("mapreduce: job %d: completed %d + pending %d + running groups %d exceeds NumMaps %d",
				j.ID(), j.CompletedMaps(), j.PendingMaps(), groupsPerJob[j], j.Spec.NumMaps)
		}
	}
	// 4. The demand counters that gate heartbeat offers equal their sums
	// over the registered jobs: an undercount would withhold offers a job
	// could take, an overcount would offer slots nobody can use.
	maps, reduces := 0, 0
	for _, j := range t.active {
		if !j.registered {
			return fmt.Errorf("mapreduce: active job %d is not registered for demand counting", j.ID())
		}
		maps += j.PendingMaps()
		reduces += j.PendingReduces()
	}
	if maps != t.c.pendingMapInputs {
		return fmt.Errorf("mapreduce: demand counter pendingMapInputs=%d, but active jobs hold %d pending maps",
			t.c.pendingMapInputs, maps)
	}
	if reduces != t.c.launchableReduces {
		return fmt.Errorf("mapreduce: demand counter launchableReduces=%d, but active jobs hold %d pending reduces",
			t.c.launchableReduces, reduces)
	}
	return nil
}
