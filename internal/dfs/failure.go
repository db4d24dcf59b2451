package dfs

import (
	"fmt"

	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/topology"
)

// Failure handling: the availability half of the paper's §IV-B remark that
// "replicas created by DARE are first-order replicas and as such they also
// contribute to increasing availability of the data in the presence of
// failures". When a data node dies, every replica it hosted disappears;
// blocks whose last replica died become unavailable until (if ever)
// repaired from elsewhere. The name node then re-replicates
// under-replicated blocks onto surviving nodes, exactly as HDFS does.

// FailureReport summarizes the metadata impact of one node failure.
type FailureReport struct {
	Node topology.NodeID
	// LostPrimaries and LostDynamic list the replicas that disappeared.
	LostPrimaries []BlockID
	LostDynamic   []BlockID
	// UnavailableBlocks lists blocks left with zero live replicas.
	UnavailableBlocks []BlockID
}

// FailNode removes every replica hosted on node and marks the node down:
// future placement (primary or dynamic) avoids it. Failing an
// already-failed node is a no-op returning an empty report.
func (nn *NameNode) FailNode(node topology.NodeID) FailureReport {
	rep := FailureReport{Node: node}
	if int(node) < 0 || int(node) >= nn.topo.N() || nn.failed[node] {
		return rep
	}
	if nn.down {
		// Defensive: with the master down, nobody is there to declare the
		// node dead — the tracker defers the declaration until recovery.
		return rep
	}
	nn.failed[node] = true
	nn.churned = true
	nn.journalAdd(journalRecord{op: opNodeFail, node: node})
	if nn.warming[node] {
		// The node died before delivering its post-recovery block report;
		// stop waiting for it and drop the crash-time capture of its disk.
		delete(nn.warming, node)
		if int(node) < len(nn.diskTruth) {
			nn.diskTruth[node] = nil
		}
	}

	// Drain node's ascending block list front to back.
	for len(nn.perNode[node]) > 0 {
		b := nn.perNode[node][0]
		kind, _ := nn.dropReplica(b, node)
		if kind == Primary {
			rep.LostPrimaries = append(rep.LostPrimaries, b)
		} else {
			rep.LostDynamic = append(rep.LostDynamic, b)
		}
		if nn.NumReplicas(b) == 0 {
			rep.UnavailableBlocks = append(rep.UnavailableBlocks, b)
		}
		nn.journalAdd(journalRecord{op: opRemoveReplica, block: b, node: node})
		nn.publishReplica(event.ReplicaRemove, b, node, kind == Dynamic)
	}
	if nn.bus != nil {
		ev := event.New(event.NodeFail)
		ev.Node = int32(node)
		ev.Rack = int32(nn.topo.Rack(node))
		ev.Aux = int64(len(rep.LostPrimaries) + len(rep.LostDynamic))
		nn.bus.Publish(ev)
	}
	if nn.warming != nil && len(nn.warming) == 0 {
		nn.finishWarming()
	} else {
		nn.journalMaybeCheckpoint()
	}
	return rep
}

// NodeFailed reports whether node has been failed.
func (nn *NameNode) NodeFailed(node topology.NodeID) bool { return nn.failed[node] }

// UpNodes returns the live node IDs, sorted.
func (nn *NameNode) UpNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, nn.topo.N()-len(nn.failed))
	for i := 0; i < nn.topo.N(); i++ {
		if !nn.failed[topology.NodeID(i)] {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// AddPrimaryReplica registers a repaired primary replica of b at node —
// the re-replication path. The node must be up and not already hold b.
func (nn *NameNode) AddPrimaryReplica(b BlockID, node topology.NodeID) error {
	if nn.Block(b) == nil {
		return fmt.Errorf("dfs: unknown block %d", b)
	}
	if int(node) < 0 || int(node) >= nn.topo.N() {
		return fmt.Errorf("dfs: invalid node %d", node)
	}
	if nn.down {
		return fmt.Errorf("dfs: repair block %d: %w", b, ErrMasterDown)
	}
	if nn.failed[node] {
		return fmt.Errorf("dfs: node %d: %w", node, ErrNodeDown)
	}
	if !nn.putReplica(b, node, Primary) {
		return fmt.Errorf("dfs: node %d already holds a replica of block %d", node, b)
	}
	nn.journalAdd(journalRecord{op: opAddReplica, block: b, node: node, kind: Primary})
	nn.publishReplica(event.ReplicaRepair, b, node, false)
	nn.journalMaybeCheckpoint()
	return nil
}

// UnderReplicated returns the blocks whose live primary count is below
// min(replication factor, live nodes) but that still have at least one
// live replica to copy from, sorted by ID — the name node's repair queue.
func (nn *NameNode) UnderReplicated() []BlockID {
	want := nn.repairFloor()
	var out []BlockID
	for b, locs := range nn.locations {
		if len(locs) > 0 && primaries(locs) < want { // an empty list has nothing to copy from
			out = append(out, BlockID(b))
		}
	}
	return out
}

// repairFloor is the primary count a block needs: min(replication factor,
// live nodes).
func (nn *NameNode) repairFloor() int {
	return min(nn.replication, nn.topo.N()-len(nn.failed))
}

// primaries counts the primary replicas in a holder list.
func primaries(locs []replica) int {
	n := 0
	for _, r := range locs {
		if r.kind == Primary {
			n++
		}
	}
	return n
}

// IsUnderReplicated reports whether b individually needs repair: its live
// primary count is below min(replication factor, live nodes) and it still
// has at least one live replica to copy from. It is the O(replicas)
// per-block companion of UnderReplicated, for repair loops that would
// otherwise rescan the whole block map per repaired block.
func (nn *NameNode) IsUnderReplicated(b BlockID) bool {
	locs := nn.locs(b)
	return len(locs) > 0 && primaries(locs) < nn.repairFloor() // an empty list has nothing to copy from
}

// repairCtx is the policy.Context a repair-target candidate exposes to
// the ranking terms: "rack_fresh" (1 when the candidate's rack holds no
// replica of the block) and "load" (the candidate's primary bytes).
type repairCtx struct {
	rackFresh float64
	load      float64
}

// Val implements policy.Context.
func (c *repairCtx) Val(key string) (float64, bool) {
	switch key {
	case "rack_fresh":
		return c.rackFresh, true
	case "load":
		return c.load, true
	}
	return 0, false
}

// SetRepairTerms replaces the repair-target ranking terms (from a
// -policy-file config); nil restores the built-in rack-aware default.
func (nn *NameNode) SetRepairTerms(terms []policy.Term) {
	if terms == nil {
		terms = policy.DefaultRepairTerms()
	}
	nn.repairTerms = terms
}

// RepairTarget picks a live node that does not hold b, ranking candidates
// lexicographically by the configured terms. The built-in terms are
// rack-aware like HDFS's replicator: nodes in racks holding no replica of
// b are preferred (a rack failure then can't take out every copy), with
// fewest primary bytes (space balancing) and then lowest ID as
// tie-breaks — the last because UpNodes iterates in ID order and equal
// score vectors keep the first-seen candidate. Loads are int64 bytes far
// below 2^53, so the float64 scores compare exactly. ok is false when
// every live node already holds b.
func (nn *NameNode) RepairTarget(b BlockID) (topology.NodeID, bool) {
	locs := nn.locs(b)
	coveredRacks := make(map[int]bool, len(locs))
	for _, r := range locs {
		coveredRacks[nn.topo.Rack(r.node)] = true
	}
	ranker := policy.Ranker{Terms: nn.repairTerms}
	best := topology.NodeID(-1)
	var ctx repairCtx
	for _, node := range nn.UpNodes() {
		if nn.HasReplica(b, node) {
			continue
		}
		if !coveredRacks[nn.topo.Rack(node)] {
			ctx.rackFresh = 1
		} else {
			ctx.rackFresh = 0
		}
		ctx.load = float64(nn.primaryBytes[node])
		nn.repairScore = ranker.ScoreInto(nn.repairScore, &ctx)
		if best < 0 || policy.LexBetter(nn.repairScore, nn.repairBest) {
			best = node
			nn.repairBest = append(nn.repairBest[:0], nn.repairScore...)
		}
	}
	return best, best >= 0
}

// Availability reports (blocks with >= 1 live replica, total blocks).
func (nn *NameNode) Availability() (available, total int) {
	for _, locs := range nn.locations {
		if len(locs) > 0 {
			available++
		}
	}
	return available, len(nn.locations)
}

// BlockWeights lays per-file block weights out as one vector indexed by
// BlockID: counts[f][k] (a workload's BlockAccessCounts) weighs block k
// of files[f]. Blocks no count covers weigh 0.
func (nn *NameNode) BlockWeights(files []*File, counts [][]int) []float64 {
	w := make([]float64, len(nn.blocks))
	for f, file := range files {
		if f >= len(counts) {
			break
		}
		for k, b := range file.Blocks {
			if k < len(counts[f]) {
				w[b] = float64(counts[f][k])
			}
		}
	}
	return w
}

// WeightedAvailability reports the fraction of access weight that remains
// readable: Σ weight(b) over available blocks / Σ weight(b), summed in
// BlockID order. weights is indexed by BlockID (see BlockWeights); blocks
// past its end weigh 0.
func (nn *NameNode) WeightedAvailability(weights []float64) float64 {
	var avail, total float64
	for b, w := range weights {
		if w <= 0 || nn.Block(BlockID(b)) == nil {
			continue
		}
		total += w
		if len(nn.locations[b]) > 0 {
			avail += w
		}
	}
	if total == 0 {
		return 1
	}
	return avail / total
}
