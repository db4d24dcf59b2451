package dfs

import (
	"fmt"
	"math"

	"dare/internal/event"
	"dare/internal/topology"
)

// Balancer implements HDFS's storage balancer: it iteratively moves block
// replicas from over-utilized data nodes to under-utilized ones until
// every node's utilization is within a threshold of the cluster mean.
//
// It exists in this reproduction as a *contrast* to DARE: the balancer
// equalizes bytes, not popularity. A byte-balanced cluster can still have
// a wildly skewed popularity-index distribution (Fig. 11's cv), because
// which blocks sit on a node matters more than how many. The balancer
// experiment makes that distinction measurable.
type Balancer struct {
	nn *NameNode
	// Threshold is the allowed deviation from mean utilization, as a
	// fraction of the mean (HDFS default: 10%).
	Threshold float64
	// MaxMoves bounds one Run invocation (0 = no bound).
	MaxMoves int
}

// NewBalancer wraps a name node with the default 10% threshold.
func NewBalancer(nn *NameNode) *Balancer {
	return &Balancer{nn: nn, Threshold: 0.10}
}

// nodeBytes reports the total stored bytes (primary + dynamic) per node.
func (b *Balancer) nodeBytes() []int64 {
	out := make([]int64, b.nn.N())
	for n := range out {
		out[n] = b.nn.primaryBytes[n] + b.nn.dynamicBytes[n]
	}
	return out
}

// Run performs balancing moves until balanced or MaxMoves is hit. It
// returns the number of block moves and the bytes moved (each move is a
// real network transfer in HDFS; callers that care about traffic should
// account for MovedBytes).
func (b *Balancer) Run() (moves int, movedBytes int64, err error) {
	for {
		if b.MaxMoves > 0 && moves >= b.MaxMoves {
			return moves, movedBytes, nil
		}
		src, dst, ok := b.pickPair()
		if !ok {
			return moves, movedBytes, nil
		}
		bytes := b.nodeBytes()
		gap := bytes[src] - bytes[dst]
		blk, ok := b.pickBlock(src, dst, gap)
		if !ok {
			// Nothing movable: every candidate already has a replica on the
			// destination, or every move would overshoot and oscillate.
			return moves, movedBytes, nil
		}
		if err := b.move(blk, src, dst); err != nil {
			return moves, movedBytes, fmt.Errorf("dfs: balancer move: %w", err)
		}
		moves++
		movedBytes += b.nn.Block(blk).Size
	}
}

// pickPair selects the most over-utilized and most under-utilized live
// nodes, if the pair deviates beyond the threshold.
func (b *Balancer) pickPair() (src, dst topology.NodeID, ok bool) {
	bytes := b.nodeBytes()
	mean := meanBytes(bytes, b.nn.failed)
	if mean == 0 {
		return 0, 0, false
	}
	src, dst = -1, -1
	var maxV, minV int64 = -1, 1 << 62
	for n, v := range bytes {
		node := topology.NodeID(n)
		if b.nn.failed[node] {
			continue
		}
		if v > maxV {
			maxV, src = v, node
		}
		if v < minV {
			minV, dst = v, node
		}
	}
	if src < 0 || dst < 0 || src == dst {
		return 0, 0, false
	}
	if deviation(maxV, mean) <= b.Threshold && deviation(minV, mean) <= b.Threshold {
		return 0, 0, false
	}
	return src, dst, true
}

// pickBlock chooses a block on src that dst does not hold, preferring the
// largest (fewest moves to balance) whose move strictly shrinks the
// src-dst gap (size < gap — otherwise the pair would oscillate);
// deterministic tie-break by ID.
func (b *Balancer) pickBlock(src, dst topology.NodeID, gap int64) (BlockID, bool) {
	var best BlockID = -1
	var bestSize int64 = -1
	for _, id := range b.nn.perNode[src] {
		if b.nn.HasReplica(id, dst) {
			continue
		}
		if s := b.nn.Block(id).Size; s > bestSize && s < gap {
			best, bestSize = id, s
		}
	}
	return best, best >= 0
}

// move relocates one replica from src to dst, preserving its kind.
func (b *Balancer) move(blk BlockID, src, dst topology.NodeID) error {
	kind, ok := b.nn.ReplicaKindAt(blk, src)
	if !ok {
		return fmt.Errorf("dfs: block %d not on node %d", blk, src)
	}
	if b.nn.down {
		return fmt.Errorf("dfs: balancer move of block %d: %w", blk, ErrMasterDown)
	}
	// A move streams the stored bytes as-is, so latent corruption travels
	// with the replica.
	carryCorrupt := b.nn.IsCorrupt(blk, src)
	b.nn.dropReplica(blk, src)
	b.nn.putReplica(blk, dst, kind)
	if carryCorrupt {
		b.nn.setCorrupt(blk, dst)
	}
	b.nn.journalAdd(journalRecord{op: opRemoveReplica, block: blk, node: src})
	b.nn.journalAdd(journalRecord{op: opAddReplica, block: blk, node: dst, kind: kind})
	if carryCorrupt {
		b.nn.journalAdd(journalRecord{op: opMarkCorrupt, block: blk, node: dst})
	}
	b.nn.publishReplica(event.ReplicaRemove, blk, src, kind == Dynamic)
	b.nn.publishReplica(event.ReplicaAdd, blk, dst, kind == Dynamic)
	b.nn.journalMaybeCheckpoint()
	return nil
}

// StorageCV reports the coefficient of variation of per-node stored bytes
// over live nodes — the balancer's own success metric, as opposed to
// Fig. 11's popularity-index cv.
func (b *Balancer) StorageCV() float64 {
	bytes := b.nodeBytes()
	var sum, n float64
	for i, v := range bytes {
		if b.nn.failed[topology.NodeID(i)] {
			continue
		}
		sum += float64(v)
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := sum / n
	var varSum float64
	for i, v := range bytes {
		if b.nn.failed[topology.NodeID(i)] {
			continue
		}
		d := float64(v) - mean
		varSum += d * d
	}
	return math.Sqrt(varSum/n) / mean
}

func meanBytes(bytes []int64, failed map[topology.NodeID]bool) float64 {
	var sum, n float64
	for i, v := range bytes {
		if failed[topology.NodeID(i)] {
			continue
		}
		sum += float64(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func deviation(v int64, mean float64) float64 {
	d := float64(v) - mean
	if d < 0 {
		d = -d
	}
	return d / mean
}
