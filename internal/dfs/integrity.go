package dfs

import (
	"fmt"

	"dare/internal/event"
	"dare/internal/topology"
)

// Data integrity: replicas carry a (modelled) checksum. Corruption is
// injected silently — the name node's metadata still lists the replica and
// the scheduler still offers it as local — and surfaces only when a reader
// verifies the checksum at the end of a read, exactly as HDFS discovers
// bad blocks. Detection quarantines the replica: it is evicted from the
// metadata (primary or dynamic alike), so no job is offered it as local
// again, with the usual ReplicaRemove event, and the repair pipeline
// restores the replication factor from a surviving copy.

// StaleReplica describes one replica a flapping node still holds on disk
// when it re-registers after a false-dead declaration (see ReRegisterNode).
type StaleReplica struct {
	Block BlockID
	Kind  ReplicaKind
}

// MarkCorrupt silently corrupts node's replica of b: metadata is
// untouched and no event fires — the damage is latent until a read
// verifies the checksum (QuarantineReplica). Marking a replica that does
// not exist is an error.
func (nn *NameNode) MarkCorrupt(b BlockID, node topology.NodeID) error {
	if !nn.setCorrupt(b, node) {
		return fmt.Errorf("dfs: node %d holds no replica of block %d to corrupt", node, b)
	}
	// Corruption is disk truth, not a master RPC: it lands even while the
	// master is down. Journal it so a journal-mode recovery reproduces the
	// marks, and mirror it into the crash-time disk capture so a report-mode
	// recovery re-learns it from the node's block report.
	nn.journalAdd(journalRecord{op: opMarkCorrupt, block: b, node: node})
	if nn.down && int(node) < len(nn.diskTruth) {
		for i := range nn.diskTruth[node] {
			if nn.diskTruth[node][i].block == b {
				nn.diskTruth[node][i].corrupt = true
				break
			}
		}
	}
	if !nn.down {
		nn.journalMaybeCheckpoint()
	}
	return nil
}

// IsCorrupt reports whether node's replica of b is marked corrupt.
func (nn *NameNode) IsCorrupt(b BlockID, node topology.NodeID) bool {
	r := nn.holder(b, node)
	return r != nil && r.corrupt
}

// QuarantineReplica removes a detected-corrupt replica from the metadata —
// the checksum-failure path, applicable to primaries and dynamic copies
// alike (unlike RemoveDynamicReplica, eviction here is mandatory: the
// bytes are garbage). It publishes ReplicaCorrupt with the pre-removal
// state, then the usual ReplicaRemove so subscribers react exactly as
// for any other disappearance. Blocks may drop below the
// replication floor until repaired, so the churned latch is set.
func (nn *NameNode) QuarantineReplica(b BlockID, node topology.NodeID) error {
	kind, ok := nn.ReplicaKindAt(b, node)
	if !ok {
		return fmt.Errorf("dfs: node %d holds no replica of block %d to quarantine", node, b)
	}
	if nn.down {
		// Detection is a reader-to-master report; with the master gone it
		// must be retried after recovery (the tracker's retry machinery
		// handles this).
		return fmt.Errorf("dfs: quarantine replica of block %d: %w", b, ErrMasterDown)
	}
	nn.churned = true
	nn.journalAdd(journalRecord{op: opChurn})
	nn.publishReplica(event.ReplicaCorrupt, b, node, kind == Dynamic)
	nn.dropReplica(b, node)
	nn.journalAdd(journalRecord{op: opRemoveReplica, block: b, node: node})
	nn.publishReplica(event.ReplicaRemove, b, node, kind == Dynamic)
	nn.journalMaybeCheckpoint()
	return nil
}

// ReRegisterNode rejoins a failed node whose disk survived — the
// false-dead (flapping) path: heartbeat loss declared the node dead and
// FailNode scrubbed its replicas, but the process comes back moments later
// and its block report still lists them. Each reported replica is
// reconciled against the registry: replicas of blocks the name node no
// longer tracks are discarded, a report for a block the node somehow
// already holds is ignored, and the rest are restored (with byte
// accounting and ReplicaAdd events, so policies re-learn them).
// The NodeRecover event fires last, with Aux = restored count, so every
// subscriber observes a fully reconciled registry. It returns the number
// of replicas restored.
//
// A nil report rejoins the node empty, HDFS-style: whatever it held
// before the failure is stale (FailNode already scrubbed the metadata),
// so blocks that lost their last replica stay lost. Rejoining a node that
// is not failed mutates and publishes nothing and returns an error, so a
// retried rejoin never double-registers a node.
func (nn *NameNode) ReRegisterNode(node topology.NodeID, stale []StaleReplica) (int, error) {
	if int(node) < 0 || int(node) >= nn.topo.N() {
		return 0, fmt.Errorf("dfs: invalid node %d", node)
	}
	if !nn.failed[node] {
		return 0, fmt.Errorf("dfs: node %d is not failed", node)
	}
	if nn.down {
		return 0, fmt.Errorf("dfs: node %d cannot register: %w", node, ErrMasterDown)
	}
	delete(nn.failed, node)
	nn.journalAdd(journalRecord{op: opNodeJoin, node: node})
	// A node registering with a warming master IS its block report: what it
	// carries (the stale list) is everything its disk holds, so the master
	// stops waiting for a separate report from it.
	if nn.warming[node] {
		delete(nn.warming, node)
		if int(node) < len(nn.diskTruth) {
			nn.diskTruth[node] = nil
		}
	}
	restored := 0
	for _, s := range stale {
		if !nn.putReplica(s.Block, node, s.Kind) {
			continue // the registry no longer tracks the block, or already has this copy
		}
		nn.journalAdd(journalRecord{op: opAddReplica, block: s.Block, node: node, kind: s.Kind})
		nn.publishReplica(event.ReplicaAdd, s.Block, node, s.Kind == Dynamic)
		restored++
	}
	if nn.bus != nil {
		ev := event.New(event.NodeRecover)
		ev.Node = int32(node)
		ev.Rack = int32(nn.topo.Rack(node))
		ev.Aux = int64(restored)
		nn.bus.Publish(ev)
	}
	if nn.warming != nil && len(nn.warming) == 0 {
		nn.finishWarming()
	} else {
		nn.journalMaybeCheckpoint()
	}
	return restored, nil
}
