// Package topology models the physical/virtual network layout of a
// cluster: which rack each node sits in, how many switch hops separate two
// nodes, and the round-trip time distribution between them.
//
// One type, Topology, holds any layout. Its two constructors mirror the
// paper's two testbeds (§II-B, Table I, Fig. 1):
//
//   - NewDedicated: a small in-house cluster (the Illinois CCT) where
//     nodes are packed into racks of consecutive IDs, all in one pod, and
//     any two nodes are 2–4 hops apart, with tight, low RTTs.
//   - NewVirtual: a public-cloud allocation (EC2) where the provider
//     scatters instances across racks and pods, so most node pairs are ~4
//     hops apart (Fig. 1) and RTTs are heavy-tailed (Table I: mean
//     0.77 ms, max 75 ms).
//
// The constructor also builds rack membership, once, so the DFS placement
// policy, rack-local task selection, heartbeat cohorts and rack failures
// all read the same layout.
package topology

import (
	"fmt"

	"dare/internal/stats"
)

// NodeID identifies a node within a cluster, in [0, N).
type NodeID int

// Topology is the cluster layout queried by the schedulers (rack
// locality), the DFS placement policy, and the transfer cost model. Hop
// counts follow a three-tier tree (host–ToR–aggregation–core): same rack
// 2, same pod 4, cross-pod 6.
type Topology struct {
	rackOf []int
	// podOf is nil for a dedicated cluster, which is one pod.
	podOf  []int
	rtt    stats.Dist // RTT component per pair, before per-hop scaling
	perHop float64    // additional seconds of RTT per hop beyond 2

	// members lists every node ID grouped by rack, ascending within a
	// rack: rack r's members are members[start[r]:start[r+1]], and
	// ordinal[n] is n's index within its rack's run.
	members []NodeID
	start   []int32
	ordinal []int32
}

// newTopology builds the rack membership of rackOf with a counting sort.
func newTopology(rackOf, podOf []int, rtt stats.Dist, perHop float64) *Topology {
	racks := 0
	for _, r := range rackOf {
		racks = max(racks, r+1)
	}
	t := &Topology{
		rackOf:  rackOf,
		podOf:   podOf,
		rtt:     rtt,
		perHop:  perHop,
		members: make([]NodeID, len(rackOf)),
		start:   make([]int32, racks+1),
		ordinal: make([]int32, len(rackOf)),
	}
	// Count each rack's nodes into start[r+1]; a node's count on arrival,
	// with IDs ascending, is its ordinal. A prefix sum turns the counts
	// into run starts.
	for n, r := range rackOf {
		t.ordinal[n] = t.start[r+1]
		t.start[r+1]++
	}
	for r := range racks {
		t.start[r+1] += t.start[r]
	}
	for n, r := range rackOf {
		t.members[t.start[r]+t.ordinal[n]] = NodeID(n)
	}
	return t
}

// NewDedicated builds a single-site cluster: nodes are packed into racks
// of rackSize consecutive nodes, all in one pod. rackSize <= 0 means a
// single rack holding every node — the CCT configuration, where every
// distinct pair is 2 hops apart.
func NewDedicated(nodes, rackSize int, rtt stats.Dist) *Topology {
	if nodes <= 0 {
		panic(fmt.Sprintf("topology: nodes must be positive, got %d", nodes))
	}
	if rackSize <= 0 {
		rackSize = nodes
	}
	rackOf := make([]int, nodes)
	for n := range rackOf {
		rackOf[n] = n / rackSize
	}
	return newTopology(rackOf, nil, rtt, 0)
}

// VirtualParams configures the random placement of NewVirtual.
type VirtualParams struct {
	Nodes int
	// Racks is the number of distinct racks the provider may choose from;
	// many more racks than nodes/2 means few same-rack pairs.
	Racks int
	// Pods is the number of aggregation pods racks are spread over; a small
	// number (2–3) keeps most pairs at 4 hops with a 6-hop tail, matching
	// the measured Fig. 1 histogram.
	Pods int
	// RTT is the base per-pair round-trip distribution (heavy-tailed for
	// EC2 per Table I).
	RTT stats.Dist
	// PerHopRTT adds this many seconds per hop beyond two.
	PerHopRTT float64
}

// NewVirtual builds a cloud-provider allocation: each node lands in a
// random rack inside a random pod, drawn from g. The placement is part of
// the experiment's random state: two clusters built with equal seeds are
// identical. Rack IDs no node drew stay empty.
func NewVirtual(p VirtualParams, g *stats.RNG) *Topology {
	if p.Nodes <= 0 {
		panic(fmt.Sprintf("topology: nodes must be positive, got %d", p.Nodes))
	}
	if p.Racks <= 0 {
		p.Racks = p.Nodes
	}
	if p.Pods <= 0 {
		p.Pods = 1
	}
	// Assign each rack to a pod deterministically, then each node to a
	// random rack.
	rackPod := make([]int, p.Racks)
	for r := range rackPod {
		rackPod[r] = g.Intn(p.Pods)
	}
	rackOf := make([]int, p.Nodes)
	podOf := make([]int, p.Nodes)
	for n := range rackOf {
		r := g.Intn(p.Racks)
		rackOf[n] = r
		podOf[n] = rackPod[r]
	}
	return newTopology(rackOf, podOf, p.RTT, p.PerHopRTT)
}

// N reports the number of nodes.
func (t *Topology) N() int { return len(t.rackOf) }

// Rack reports the rack index of a node.
func (t *Topology) Rack(n NodeID) int { return t.rackOf[n] }

// Racks reports the largest rack index plus one. A virtual layout may
// leave some indices below it empty.
func (t *Topology) Racks() int { return len(t.start) - 1 }

// RackMembers returns the IDs of rack r's nodes in ascending order. The
// slice is shared: callers must not modify it.
func (t *Topology) RackMembers(r int) []NodeID { return t.members[t.start[r]:t.start[r+1]] }

// RackOrdinal reports n's index within RackMembers(Rack(n)): the count of
// same-rack nodes with smaller IDs.
func (t *Topology) RackOrdinal(n NodeID) int { return int(t.ordinal[n]) }

// Hops reports the switch-hop count between two nodes (0 for the same
// node). Hops is symmetric.
func (t *Topology) Hops(a, b NodeID) int {
	switch {
	case a == b:
		return 0
	case t.rackOf[a] == t.rackOf[b]:
		return 2
	case t.podOf == nil || t.podOf[a] == t.podOf[b]:
		return 4
	default:
		return 6
	}
}

// SampleRTT draws a round-trip time in seconds between two nodes using g:
// the base sample floored at zero, plus perHop per hop beyond two.
func (t *Topology) SampleRTT(a, b NodeID, g *stats.RNG) float64 {
	if a == b {
		return 0
	}
	rtt := t.rtt.Sample(g)
	if rtt < 0 {
		rtt = 0
	}
	if extra := t.Hops(a, b) - 2; extra > 0 && t.perHop != 0 {
		rtt += float64(extra) * t.perHop
	}
	return rtt
}

// HopHistogram computes the distribution of hop counts over all unordered
// distinct node pairs — the quantity plotted in Fig. 1.
func HopHistogram(t *Topology) *stats.IntCounter {
	var c stats.IntCounter
	n := t.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Add(t.Hops(NodeID(i), NodeID(j)))
		}
	}
	return &c
}

// AllPairsRTT samples one RTT per ordered distinct pair, reproducing the
// all-to-all ping experiment behind Table I.
func AllPairsRTT(t *Topology, g *stats.RNG) []float64 {
	n := t.N()
	out := make([]float64, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out = append(out, t.SampleRTT(NodeID(i), NodeID(j), g))
		}
	}
	return out
}
