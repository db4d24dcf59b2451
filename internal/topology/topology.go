// Package topology models the physical/virtual network layout of a
// cluster: which rack each node sits in, how many switch hops separate two
// nodes, and the round-trip time distribution between them.
//
// Two concrete layouts mirror the paper's two testbeds (§II-B, Table I,
// Fig. 1):
//
//   - Dedicated: a small in-house cluster (the Illinois CCT) where all
//     nodes sit in one or two racks and any two nodes are 1–2 hops apart,
//     with tight, low RTTs.
//   - Virtual: a public-cloud allocation (EC2) where the provider scatters
//     instances across racks and pods, so most node pairs are ~4 hops
//     apart (Fig. 1) and RTTs are heavy-tailed (Table I: mean 0.77 ms,
//     max 75 ms).
package topology

import (
	"fmt"

	"dare/internal/stats"
)

// NodeID identifies a node within a cluster, in [0, N).
type NodeID int

// Topology exposes the cluster layout queried by the schedulers (rack
// locality), the DFS placement policy, and the transfer cost model.
type Topology interface {
	// N reports the number of nodes.
	N() int
	// Rack reports the rack index of a node.
	Rack(n NodeID) int
	// Hops reports the switch-hop count between two nodes (0 for the same
	// node). Hops is symmetric.
	Hops(a, b NodeID) int
	// SampleRTT draws a round-trip time in seconds between two distinct
	// nodes using g.
	SampleRTT(a, b NodeID, g *stats.RNG) float64
}

// Dedicated is a single-site cluster: nodes are packed into racks of
// RackSize consecutive nodes. Same-rack pairs are 2 hops apart (host → ToR
// → host), cross-rack pairs 4 (via aggregation). With one rack — the CCT
// configuration — every distinct pair is 2 hops.
type Dedicated struct {
	nodes    int
	rackSize int
	rtt      stats.Dist
}

// NewDedicated builds a dedicated topology. rackSize <= 0 means a single
// rack holding every node.
func NewDedicated(nodes, rackSize int, rtt stats.Dist) *Dedicated {
	if nodes <= 0 {
		panic(fmt.Sprintf("topology: nodes must be positive, got %d", nodes))
	}
	if rackSize <= 0 {
		rackSize = nodes
	}
	return &Dedicated{nodes: nodes, rackSize: rackSize, rtt: rtt}
}

// N implements Topology.
func (d *Dedicated) N() int { return d.nodes }

// Rack implements Topology.
func (d *Dedicated) Rack(n NodeID) int { return int(n) / d.rackSize }

// Hops implements Topology.
func (d *Dedicated) Hops(a, b NodeID) int {
	switch {
	case a == b:
		return 0
	case d.Rack(a) == d.Rack(b):
		return 2
	default:
		return 4
	}
}

// SampleRTT implements Topology.
func (d *Dedicated) SampleRTT(a, b NodeID, g *stats.RNG) float64 {
	if a == b {
		return 0
	}
	v := d.rtt.Sample(g)
	if v < 0 {
		v = 0
	}
	return v
}

// Virtual is a cloud-provider allocation: each node lands in a random rack
// inside a random pod of a three-tier tree (host–ToR–aggregation–core).
// Hop counts: same rack 2, same pod 4, cross-pod 6 — so with many racks
// and few pods the distribution concentrates at 4, reproducing Fig. 1.
type Virtual struct {
	nodes   int
	rackOf  []int
	podOf   []int
	baseRTT stats.Dist // RTT component per pair, before per-hop scaling
	perHop  float64    // additional seconds of RTT per hop beyond 2
}

// VirtualParams configures the random placement of a Virtual topology.
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

// NewVirtual places nodes using g. The placement is part of the
// experiment's random state: two clusters built with equal seeds are
// identical.
func NewVirtual(p VirtualParams, g *stats.RNG) *Virtual {
	if p.Nodes <= 0 {
		panic(fmt.Sprintf("topology: nodes must be positive, got %d", p.Nodes))
	}
	if p.Racks <= 0 {
		p.Racks = p.Nodes
	}
	if p.Pods <= 0 {
		p.Pods = 1
	}
	v := &Virtual{
		nodes:   p.Nodes,
		rackOf:  make([]int, p.Nodes),
		podOf:   make([]int, p.Nodes),
		baseRTT: p.RTT,
		perHop:  p.PerHopRTT,
	}
	// Assign each rack to a pod deterministically, then each node to a
	// random rack.
	rackPod := make([]int, p.Racks)
	for r := range rackPod {
		rackPod[r] = g.Intn(p.Pods)
	}
	for n := 0; n < p.Nodes; n++ {
		r := g.Intn(p.Racks)
		v.rackOf[n] = r
		v.podOf[n] = rackPod[r]
	}
	return v
}

// N implements Topology.
func (v *Virtual) N() int { return v.nodes }

// Rack implements Topology.
func (v *Virtual) Rack(n NodeID) int { return v.rackOf[n] }

// Hops implements Topology.
func (v *Virtual) Hops(a, b NodeID) int {
	switch {
	case a == b:
		return 0
	case v.rackOf[a] == v.rackOf[b]:
		return 2
	case v.podOf[a] == v.podOf[b]:
		return 4
	default:
		return 6
	}
}

// SampleRTT implements Topology.
func (v *Virtual) SampleRTT(a, b NodeID, g *stats.RNG) float64 {
	if a == b {
		return 0
	}
	rtt := v.baseRTT.Sample(g)
	if rtt < 0 {
		rtt = 0
	}
	extra := v.Hops(a, b) - 2
	if extra > 0 {
		rtt += float64(extra) * v.perHop
	}
	return rtt
}

// HopHistogram computes the distribution of hop counts over all unordered
// distinct node pairs — the quantity plotted in Fig. 1.
func HopHistogram(t Topology) *stats.IntCounter {
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
func AllPairsRTT(t Topology, g *stats.RNG) []float64 {
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
