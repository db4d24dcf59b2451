package mapreduce

import (
	"dare/internal/sim"
	"dare/internal/topology"
)

// heartbeatCohortSize picks how many same-rack nodes share one coalesced
// heartbeat event on an n-node cluster. Cohorts never cross racks — a
// rack failure must stop a whole cohort's worth of members without
// touching another rack's schedule — and the size scales with the
// cluster: paper-scale clusters (< 256 nodes) get singleton cohorts,
// which makes the cohort phase assignment interval·i/n — bit-identical
// to the historical per-node de-synchronization, so small-cluster
// experiments are untouched. Past that the stride grows toward 8, where
// one engine event sweeps eight heartbeats and the dominant event class
// shrinks 8x.
func heartbeatCohortSize(n int) int {
	s := n / 128
	if s < 1 {
		s = 1
	}
	if s > 8 {
		s = 8
	}
	return s
}

// heartbeatCohorts assigns every node of c its heartbeat cohort
// (cohortOf, index-aligned with Cluster.Nodes) and every cohort its phase
// within interval. Production always chunks racks at the auto-scaled
// size; the variable exists only so tests can force a size or substitute
// the per-node reference layout (export_test.go).
var heartbeatCohorts = func(c *Cluster, interval float64) (cohortOf []int, phases []float64) {
	return rackStrideCohorts(c, interval, heartbeatCohortSize(len(c.Nodes)))
}

// rackStrideCohorts chunks every rack into cohorts of size nodes in ID
// order. Cohorts are numbered in order of first member (node ID)
// appearance — deterministic for any topology, and equal to (rack,
// stride) order on contiguous dedicated racks — and cohort i of C gets
// phase interval·i/C, so cohorts are de-synchronized exactly as
// individual nodes were, just at cohort granularity.
func rackStrideCohorts(c *Cluster, interval float64, size int) (cohortOf []int, phases []float64) {
	n := len(c.Nodes)
	cohortOf = make([]int, n)
	type cohortKey struct{ rack, stride int }
	index := make(map[cohortKey]int)
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		k := cohortKey{c.Topo.Rack(node), c.Topo.RackOrdinal(node) / size}
		id, ok := index[k]
		if !ok {
			id = len(index)
			index[k] = id
		}
		cohortOf[i] = id
	}
	phases = make([]float64, len(index))
	for i := range phases {
		phases[i] = interval * float64(i) / float64(len(phases))
	}
	return cohortOf, phases
}

// heartbeatDriver owns every node's heartbeat stream: one engine event
// per cohort per interval, sweeping the member callbacks in node order.
// Sweeping a cohort publishes exactly the heartbeats one ticker per node
// on the cohort's phase would — same instants, and at each shared instant
// the same node order (engine FIFO tie-break equals activation order
// equals cohort sweep order; DESIGN.md §4g). While the tracker's idle
// gate holds, a tick tallies those heartbeats in one add instead of
// sweeping (installIdleGate).
type heartbeatDriver struct {
	handles []*sim.CohortMember // index-aligned with Cluster.Nodes
	ct      *sim.CohortTicker
}

// newHeartbeatDriver starts heartbeats for every node of c at the given
// interval, calling beat(node) once per node per interval.
func newHeartbeatDriver(c *Cluster, interval float64, beat func(*Node)) *heartbeatDriver {
	cohortOf, phases := heartbeatCohorts(c, interval)
	d := &heartbeatDriver{
		handles: make([]*sim.CohortMember, len(c.Nodes)),
		ct:      sim.NewCohortTicker(c.Eng, interval),
	}
	cohorts := make([]*sim.Cohort, len(phases))
	for i, phase := range phases {
		cohorts[i] = d.ct.NewCohort(phase)
	}
	// Members join in node ID order, so each cohort sweeps its nodes in
	// the order their per-node first events would have been enqueued.
	for i, node := range c.Nodes {
		node := node
		d.handles[i] = cohorts[cohortOf[i]].Add(func() { beat(node) })
	}
	return d
}

// Stop halts node id's heartbeat stream (node failure).
func (d *heartbeatDriver) Stop(id topology.NodeID) {
	if d != nil && int(id) < len(d.handles) {
		d.handles[id].Stop()
	}
}

// Resume restarts node id's heartbeat stream on its original phase grid
// (node recovery or flap rejoin): the next beat is the node's next
// scheduled instant, not a full interval away.
func (d *heartbeatDriver) Resume(id topology.NodeID) {
	if d != nil && int(id) < len(d.handles) {
		d.handles[id].Resume()
	}
}

// StopAll halts every stream (end of the tracking horizon).
func (d *heartbeatDriver) StopAll() {
	if d == nil {
		return
	}
	for _, h := range d.handles {
		h.Stop()
	}
}
