// Package mapreduce models the compute half of a Hadoop-style cluster
// (§II-A): a job tracker receiving periodic heartbeats from per-node task
// trackers, map tasks bound to input blocks (one map per block), reduce
// tasks that run after the map phase, and a transfer cost model that makes
// remote (non-data-local) reads pay the network price measured in §II-B.
//
// The scheduler is pluggable (FIFO or Fair with delay scheduling live in
// internal/scheduler); DARE observes task placements through the cluster
// event bus and is otherwise invisible to the scheduler, preserving the
// paper's scheduler-agnostic design.
package mapreduce

import (
	"fmt"
	"math"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/stats"
	"dare/internal/topology"
)

// Node is the runtime state of one worker: its sampled I/O capabilities
// and its slot occupancy.
type Node struct {
	ID topology.NodeID
	// DiskBW and NetBW are this node's sampled bandwidths in MB/s; the
	// per-node draw models hardware spread (huge on EC2, Table II).
	DiskBW, NetBW float64
	// FreeMapSlots and FreeReduceSlots are the currently available slots.
	FreeMapSlots, FreeReduceSlots int
	// ActiveRemoteReads counts in-flight remote fetches targeting this
	// node; concurrent fetches share the NIC.
	ActiveRemoteReads int
	// SlowFactor and DiskFactor model gray degradation (1 = healthy).
	// SlowFactor multiplies task service time (a struggling JVM, CPU
	// contention); DiskFactor divides effective local disk bandwidth (a
	// dying disk retrying sectors). Both stay exactly 1.0 unless the gray
	// injector degrades the node, so healthy runs are bit-identical.
	SlowFactor, DiskFactor float64
	// Up is false once the node has been failed; a downed node stops
	// heartbeating and receives no tasks or replicas.
	Up bool
	// Blacklisted marks a node the job tracker refuses to schedule on after
	// too many task failures there (Hadoop's task-tracker blacklist). The
	// node keeps heartbeating and its replicas stay valid; recovery
	// (re-registration) clears the flag. Read-only outside
	// Cluster.setBlacklisted, which keeps the cluster's count current.
	Blacklisted bool
}

// Cluster bundles the simulation substrate: engine, topology, name node,
// per-node state, and the calibrated cost model.
type Cluster struct {
	Eng     *sim.Engine
	Profile *config.Profile
	Topo    *topology.Topology
	NN      *dfs.NameNode
	Nodes   []*Node
	// Bus is the cluster's event spine: the name node and the tracker
	// publish on it, and any component may subscribe (see internal/event).
	// Events are stamped with Eng's clock.
	Bus *event.Bus

	rttG   *stats.RNG
	noiseG *stats.RNG
	noise  stats.Dist

	// pendingMapInputs and launchableReduces are the tracker's demand
	// counters: PendingMaps() and PendingReduces() summed over the jobs
	// registered with the tracker (Job.registered). The Job methods that
	// change either quantity keep them current, and a heartbeat offers a
	// slot kind only while its counter is positive. They are derived
	// state: a state restore recomputes them from the active jobs.
	pendingMapInputs, launchableReduces int

	// blacklisted counts the nodes with Blacklisted set. setBlacklisted is
	// its only writer; the idle-heartbeat gate stays off while it is
	// non-zero, because a blacklisted node's beat publishes nothing.
	blacklisted int
}

// setBlacklisted sets node's blacklist flag and keeps the count current.
// It is the only writer of Node.Blacklisted.
func (c *Cluster) setBlacklisted(node *Node, v bool) {
	if node.Blacklisted == v {
		return
	}
	node.Blacklisted = v
	if v {
		c.blacklisted++
	} else {
		c.blacklisted--
	}
}

// NewCluster builds a cluster from a profile. All randomness (virtual
// placement, per-node bandwidth, task noise) derives from seed.
func NewCluster(p *config.Profile, seed uint64) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := stats.NewRNG(seed)
	topo := topology.FromProfile(p, g.Split(1))
	nn := dfs.NewNameNode(topo, p.ReplicationFactor, g.Split(2))
	eng := sim.NewEngine()
	bus := event.NewBus(eng.Now)
	nn.SetBus(bus)
	c := &Cluster{
		Eng:     eng,
		Profile: p,
		Topo:    topo,
		NN:      nn,
		Bus:     bus,
		rttG:    g.Split(3),
		noiseG:  g.Split(4),
	}
	if p.TaskNoiseSigma > 0 {
		c.noise = stats.LogNormal{Mu: -p.TaskNoiseSigma * p.TaskNoiseSigma / 2, Sigma: p.TaskNoiseSigma}
	} else {
		c.noise = stats.Constant{V: 1}
	}
	bwG := g.Split(5)
	for i := 0; i < p.Slaves; i++ {
		disk := p.DiskBW.Sample(bwG)
		net := p.NetBW.Sample(bwG)
		if disk <= 1 {
			disk = 1
		}
		if net <= 1 {
			net = 1
		}
		c.Nodes = append(c.Nodes, &Node{
			ID:              topology.NodeID(i),
			DiskBW:          disk,
			NetBW:           net,
			FreeMapSlots:    p.MapSlotsPerNode,
			FreeReduceSlots: p.ReduceSlotsPerNode,
			SlowFactor:      1,
			DiskFactor:      1,
			Up:              true,
		})
	}
	return c, nil
}

// TotalMapSlots reports the cluster-wide map slot count.
func (c *Cluster) TotalMapSlots() int { return c.Profile.Slaves * c.Profile.MapSlotsPerNode }

// TotalReduceSlots reports the cluster-wide reduce slot count.
func (c *Cluster) TotalReduceSlots() int { return c.Profile.Slaves * c.Profile.ReduceSlotsPerNode }

// taskNoise samples the multiplicative duration noise.
func (c *Cluster) taskNoise() float64 {
	v := c.noise.Sample(c.noiseG)
	if v < 0.2 {
		v = 0.2
	}
	return v
}

// LocalReadTime reports the seconds to read size bytes from node's local
// disk. A disk-degraded node reads proportionally slower (DiskFactor is
// exactly 1.0 on healthy nodes, so the multiplication is bit-exact).
func (c *Cluster) LocalReadTime(node topology.NodeID, size int64) float64 {
	return float64(size) * c.Nodes[node].DiskFactor / (c.Nodes[node].DiskBW * config.MB)
}

// chooseSourceExcluding picks the replica source for a remote read: the
// location with the fewest hops from dst (ties broken by lowest node ID
// for determinism), skipping the (possibly nil) excluded set — replicas
// the read has already found corrupt or has in flight as a hedge. ok is
// false when no such replica exists.
func (c *Cluster) chooseSourceExcluding(b dfs.BlockID, dst topology.NodeID, excluded map[topology.NodeID]bool) (topology.NodeID, bool) {
	best := topology.NodeID(-1)
	bestHops := math.MaxInt32
	// Iterate the location map directly (no allocation); the (hops, node
	// ID) tie-break is a total order, so the winner is independent of map
	// iteration order.
	c.NN.ForEachLocation(b, func(src topology.NodeID, _ dfs.ReplicaKind) bool {
		if src == dst || excluded[src] {
			return true
		}
		if h := c.Topo.Hops(src, dst); h < bestHops || (h == bestHops && src < best) {
			bestHops = h
			best = src
		}
		return true
	})
	return best, best >= 0
}

// RemoteReadTimeExcluding reports the seconds to fetch size bytes of
// block b into dst from its best replica source outside the (possibly
// nil) excluded set, accounting for path bandwidth (oversubscription
// beyond 2 hops), RTT, and NIC sharing with other in-flight fetches at
// dst. The second return is the chosen source.
func (c *Cluster) RemoteReadTimeExcluding(b dfs.BlockID, dst topology.NodeID, size int64, excluded map[topology.NodeID]bool) (float64, topology.NodeID, error) {
	src, ok := c.chooseSourceExcluding(b, dst, excluded)
	if !ok {
		return 0, 0, fmt.Errorf("mapreduce: block %d has no remote replica for node %d", b, dst)
	}
	bw := math.Min(c.Nodes[src].NetBW, c.Nodes[dst].NetBW)
	hops := c.Topo.Hops(src, dst)
	for extra := hops - 2; extra > 0; extra -= 2 {
		bw *= c.Profile.HopBWFactor
	}
	// The destination NIC is shared with other concurrent fetches.
	share := 1 + c.Nodes[dst].ActiveRemoteReads
	bw /= float64(share)
	if bw < 0.5 {
		bw = 0.5
	}
	rtt := c.Topo.SampleRTT(src, dst, c.rttG)
	return float64(size)/(bw*config.MB) + rtt, src, nil
}

// OutputWriteTime reports the seconds a reduce task on node spends writing
// `blocks` output blocks through the HDFS replication pipeline: the
// pipeline throughput is bounded by the slowest of the local disk and the
// NIC (the two downstream replicas stream in parallel behind it). A
// disk-degraded node writes proportionally slower.
func (c *Cluster) OutputWriteTime(node topology.NodeID, blocks float64) float64 {
	if blocks <= 0 {
		return 0
	}
	bw := math.Min(c.Nodes[node].DiskBW/c.Nodes[node].DiskFactor, c.Nodes[node].NetBW*c.Profile.HopBWFactor)
	if bw < 0.5 {
		bw = 0.5
	}
	return blocks * float64(c.Profile.BlockSizeBytes()) / (bw * config.MB)
}

// DedicatedRunTime reports the analytic running time of a job on an empty
// cluster with 100% data locality — the paper's slowdown denominator
// (§V-A): map waves at local read speed plus reduce waves.
func (c *Cluster) DedicatedRunTime(numMaps int, cpuPerTask float64, numReduces int, reduceTime float64, outputBlocks int) float64 {
	meanDisk := c.Profile.DiskBW.Mean()
	read := float64(c.Profile.BlockSizeBytes()) / (meanDisk * config.MB)
	mapTime := math.Max(read, cpuPerTask) + c.Profile.TaskOverhead
	waves := math.Ceil(float64(numMaps) / float64(c.TotalMapSlots()))
	t := waves * mapTime
	if numReduces > 0 {
		rWaves := math.Ceil(float64(numReduces) / float64(c.TotalReduceSlots()))
		writeBW := math.Min(meanDisk, c.Profile.NetBW.Mean()*c.Profile.HopBWFactor)
		write := float64(outputBlocks) / float64(numReduces) * float64(c.Profile.BlockSizeBytes()) / (writeBW * config.MB)
		t += rWaves * (reduceTime + write + c.Profile.TaskOverhead)
	}
	// One heartbeat of scheduling latency is inherent even on an idle
	// cluster.
	return t + c.Profile.HeartbeatInterval
}
