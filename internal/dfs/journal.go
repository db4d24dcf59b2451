package dfs

import (
	"errors"
	"fmt"

	"dare/internal/event"
	"dare/internal/snapshot"
	"dare/internal/topology"
)

// Control-plane fault tolerance: the name node's metadata can be journaled
// (an in-memory FsImage/EditLog pair) and the whole master can crash and
// recover. Journaling records every registry mutation as a primitive
// operation; a checkpoint folds the accumulated records into the
// registry's state image (walkRegistry, state.go) so recovery replays
// only the tail. Recovery loads that image with walkRegistry, the walk
// WalkState uses, and rebuilds the block registry either from
// checkpoint + journal replay ("journal" mode) or — as HDFS
// actually does for block *locations* — from per-node block reports that
// arrive over the following heartbeat intervals ("report" mode), during
// which the master's view of the data warms from empty.
//
// Everything here is inert by default: with the journal disabled, every
// hook is a single predictable branch and no events, allocations, or RNG
// draws happen, so committed goldens are byte-identical.

// ErrMasterDown marks metadata operations attempted while the name node
// is crashed; callers (tracker heartbeats, DARE announces, repair rounds)
// detect it with errors.Is and fail fast, retrying after recovery.
var ErrMasterDown = errors.New("master is down")

// RecoveryMode selects how a crashed name node rebuilds its registry.
type RecoveryMode uint8

const (
	// RecoverJournal rebuilds the registry from the last checkpoint plus
	// journal replay: recovery is instant and the post-recovery registry
	// is bit-identical to the pre-crash one.
	RecoverJournal RecoveryMode = iota
	// RecoverReport rebuilds the namespace (files, blocks) from the
	// journal but discards all replica locations: each live data node
	// re-reports its disk contents on its next heartbeat, so the block map
	// warms progressively and availability recovers node by node.
	RecoverReport
)

// String returns the CLI spelling of the mode.
func (m RecoveryMode) String() string {
	if m == RecoverReport {
		return "report"
	}
	return "journal"
}

// RecoveryModeFromString parses "journal" or "report".
func RecoveryModeFromString(s string) (RecoveryMode, error) {
	switch s {
	case "journal", "":
		return RecoverJournal, nil
	case "report":
		return RecoverReport, nil
	}
	return 0, fmt.Errorf("dfs: unknown recovery mode %q (want journal|report)", s)
}

// journalOp enumerates the primitive registry mutations. Every public
// mutation decomposes into these: CreateFiles is opNewFile per file,
// opNewBlock per block and opAddReplica per placement, FailNode is
// opNodeFail + opRemoveReplica per scrubbed replica, ReRegisterNode is
// opNodeJoin + opAddReplica per reconciled stale replica,
// QuarantineReplica is opChurn + opRemoveReplica, a balancer move is
// opRemoveReplica + opAddReplica (+ opMarkCorrupt when the bit travels
// with the replica).
type journalOp uint8

const (
	opNewFile journalOp = iota
	opNewBlock
	opAddReplica
	opRemoveReplica
	opMarkCorrupt
	opNodeFail
	opNodeJoin
	opChurn
)

// journalRecord is one primitive mutation. Unused fields stay zero.
type journalRecord struct {
	op      journalOp
	file    FileID
	block   BlockID
	node    topology.NodeID
	kind    ReplicaKind
	index   int
	size    int64
	name    string
	created float64
}

// valid reports whether r is a record the journal writes in an n-node
// cluster: a known op and, on an op that names a node, a node inside the
// cluster and a known replica kind.
func (r journalRecord) valid(n int) bool {
	switch r.op {
	case opNewFile, opNewBlock, opChurn:
		return true
	case opAddReplica, opRemoveReplica, opMarkCorrupt, opNodeFail, opNodeJoin:
		return r.node >= 0 && int(r.node) < n && r.kind.valid()
	}
	return false
}

// metaJournal is the name node's write-ahead metadata journal plus its
// rolling checkpoint.
type metaJournal struct {
	enabled bool
	// every triggers an automatic checkpoint once this many records have
	// accumulated since the last one (0 = checkpoint only on recovery).
	every   int
	records []journalRecord
	// snap is the checkpoint: the registry image walkRegistry wrote when
	// the journal was enabled or last rolled. With the records appended
	// since, it fully determines the name node's metadata; walkRegistry
	// rebuilds the derived structures from it. The encoder is reused roll
	// to roll.
	snap *snapshot.Enc
	// folded counts records absorbed into checkpoints; checkpoints counts
	// the rolls. Both feed observability only.
	folded      uint64
	checkpoints int
}

// diskReplica is one replica as a data node's disk holds it — captured at
// crash time so report-mode recovery can synthesize the block reports the
// (simulated) data nodes would send.
type diskReplica struct {
	block   BlockID
	kind    ReplicaKind
	corrupt bool
}

// EnableJournal turns on metadata journaling and takes an immediate
// checkpoint of the current registry, so recovery always has a base image
// regardless of when journaling started. checkpointEvery > 0 also rolls a
// checkpoint automatically each time that many records accumulate. Call
// once; enabling twice panics (it would silently discard the journal).
func (nn *NameNode) EnableJournal(checkpointEvery int) {
	if nn.journal.enabled {
		panic("dfs: metadata journal already enabled")
	}
	nn.journal.enabled = true
	nn.journal.every = checkpointEvery
	nn.journal.snap = snapshot.NewEnc()
	nn.walkRegistry(snapshot.WalkEnc(nn.journal.snap))
}

// JournalRecords reports the records accumulated since the last
// checkpoint.
func (nn *NameNode) JournalRecords() int { return len(nn.journal.records) }

// JournalCheckpoints reports how many checkpoints have been rolled
// since journaling was enabled (the initial image taken by
// EnableJournal is the base, not a roll, and is not counted).
func (nn *NameNode) JournalCheckpoints() int { return nn.journal.checkpoints }

// Down reports whether the master is crashed.
func (nn *NameNode) Down() bool { return nn.down }

// Warming reports whether a report-mode recovery is still waiting for
// block reports.
func (nn *NameNode) Warming() bool { return len(nn.warming) > 0 }

// NeedsBlockReport reports whether a warming master is still waiting for
// this node's block report.
func (nn *NameNode) NeedsBlockReport(node topology.NodeID) bool { return nn.warming[node] }

// journalAdd appends one record. It never checkpoints inline: a public
// mutation may emit several records, and a checkpoint taken mid-operation
// would image a state the remaining records then double-apply onto.
// Callers invoke journalMaybeCheckpoint at operation boundaries instead.
func (nn *NameNode) journalAdd(rec journalRecord) {
	if !nn.journal.enabled {
		return
	}
	nn.journal.records = append(nn.journal.records, rec)
}

// journalMaybeCheckpoint rolls an automatic checkpoint once the record
// threshold is reached. Public mutations call it after they have fully
// applied, so the checkpoint always reflects every folded record exactly
// once.
func (nn *NameNode) journalMaybeCheckpoint() {
	if !nn.journal.enabled || nn.journal.every <= 0 || len(nn.journal.records) < nn.journal.every {
		return
	}
	nn.rollCheckpoint()
}

// rollCheckpoint folds the journal into a fresh registry image and
// publishes JournalCheckpoint (Aux: records folded).
func (nn *NameNode) rollCheckpoint() {
	folded := len(nn.journal.records)
	nn.journal.snap.Reset()
	nn.walkRegistry(snapshot.WalkEnc(nn.journal.snap))
	nn.journal.folded += uint64(folded)
	nn.journal.records = nn.journal.records[:0]
	nn.journal.checkpoints++
	if nn.bus != nil {
		ev := event.New(event.JournalCheckpoint)
		ev.Aux = int64(folded)
		nn.bus.Publish(ev)
	}
}

// replayJournal applies journal records to the registry through the
// registry primitives: no events, no journaling — replay of a valid
// journal reconstructs exactly the state the records describe. A record
// whose referent is missing (a truncated journal) or that would leave a
// gap in the file or block IDs is skipped rather than trusted: replay is
// best-effort on damaged input, and the invariant checker judges the
// result.
func (nn *NameNode) replayJournal(records []journalRecord) {
	for _, r := range records {
		switch r.op {
		case opNewFile:
			if r.file != FileID(len(nn.files)) {
				continue // not the file CreateFiles would number next
			}
			nn.files = append(nn.files, &File{ID: r.file, Name: r.name, Created: r.created})
		case opNewBlock:
			f := nn.File(r.file)
			if f == nil || r.block != BlockID(len(nn.blocks)) {
				continue // the opNewFile record is gone, or the ID leaves a gap
			}
			nn.blocks = append(nn.blocks, &Block{ID: r.block, File: r.file, Index: r.index, Size: r.size})
			nn.locations = append(nn.locations, nil)
			f.Blocks = append(f.Blocks, r.block)
		case opAddReplica:
			nn.putReplica(r.block, r.node, r.kind)
		case opRemoveReplica:
			nn.dropReplica(r.block, r.node)
		case opMarkCorrupt:
			nn.setCorrupt(r.block, r.node)
		case opNodeFail:
			nn.failed[r.node] = true
			nn.churned = true
		case opNodeJoin:
			delete(nn.failed, r.node)
		case opChurn:
			nn.churned = true
		}
	}
}

// Crash takes the master down. Every metadata mutation (and the
// registration paths) returns ErrMasterDown until Recover. The journal
// must be enabled first — it is the FsImage the restarted master boots
// from. Crash also captures each data node's disk contents, so a
// report-mode recovery can synthesize the block reports the nodes would
// send (their disks outlive the master process).
func (nn *NameNode) Crash() error {
	if !nn.journal.enabled {
		return fmt.Errorf("dfs: cannot crash a master without a metadata journal (EnableJournal first)")
	}
	if nn.down {
		return fmt.Errorf("dfs: master already down")
	}
	nn.down = true
	nn.diskTruth = make([][]diskReplica, nn.topo.N())
	size := 0
	for _, ids := range nn.perNode {
		size += len(ids)
	}
	// Every node's disk is cut from one slab.
	slab := make([]diskReplica, size)
	for node, ids := range nn.perNode {
		disk := slab[:len(ids):len(ids)]
		slab = slab[len(ids):]
		for i, b := range ids {
			r := nn.holder(b, topology.NodeID(node))
			disk[i] = diskReplica{block: b, kind: r.kind, corrupt: r.corrupt}
		}
		nn.diskTruth[node] = disk
	}
	return nil
}

// Recover brings a crashed master back.
//
// In journal mode the registry is rebuilt from the last checkpoint plus
// journal replay — the derived structures are reconstructed from scratch,
// so the rebuild is a genuine recovery path, not a no-op — and a fresh
// checkpoint is rolled. The rebuilt state is bit-identical to the
// pre-crash state (nothing can mutate while down); the differential fuzz
// tests pin this.
//
// In report mode only the namespace survives: every replica location is
// discarded (with ReplicaRemove events in sorted order, so locality
// indices and policies coherently unlearn them) and each live node joins
// the warming set. DeliverBlockReport then restores locations node by
// node; the churned latch is set because blocks legitimately have zero
// known replicas until their holders report.
func (nn *NameNode) Recover(mode RecoveryMode) error {
	if !nn.down {
		return fmt.Errorf("dfs: master is not down")
	}
	// Rebuild from durable state in both modes: checkpoint + replay.
	if err := nn.walkRegistry(snapshot.WalkDec(snapshot.NewDec(nn.journal.snap.Data()))); err != nil {
		return fmt.Errorf("dfs: journal checkpoint: %w", err)
	}
	nn.replayJournal(nn.journal.records)
	nn.down = false
	if mode == RecoverJournal {
		nn.diskTruth = nil
		nn.rollCheckpoint()
		return nil
	}
	// Report mode: the block map did not survive; drop every location, in
	// (block, node) order for a deterministic trace, and wait for the data
	// nodes to re-report.
	for id := range nn.locations {
		b := BlockID(id)
		for len(nn.locations[b]) > 0 {
			node := nn.locations[b][0].node
			kind, _ := nn.dropReplica(b, node)
			nn.journalAdd(journalRecord{op: opRemoveReplica, block: b, node: node})
			nn.publishReplica(event.ReplicaRemove, b, node, kind == Dynamic)
		}
	}
	nn.churned = true
	nn.journalAdd(journalRecord{op: opChurn})
	nn.warming = make(map[topology.NodeID]bool)
	for i := 0; i < nn.topo.N(); i++ {
		if !nn.failed[topology.NodeID(i)] {
			nn.warming[topology.NodeID(i)] = true
		}
	}
	if len(nn.warming) == 0 {
		nn.finishWarming()
	}
	return nil
}

// DeliverBlockReport applies one data node's block report to a warming
// master: every replica the node's disk holds (captured at crash time) is
// registered, corruption marks included, with the usual ReplicaAdd events
// so locality indices and policies re-learn the copies. It publishes
// BlockReport (Aux: replicas reported) and, when the last expected node
// has reported, rolls a post-recovery checkpoint. Reports from nodes the
// master is not waiting on are rejected.
func (nn *NameNode) DeliverBlockReport(node topology.NodeID) (int, error) {
	if nn.down {
		return 0, fmt.Errorf("dfs: node %d block report: %w", node, ErrMasterDown)
	}
	if !nn.warming[node] {
		return 0, fmt.Errorf("dfs: master is not expecting a block report from node %d", node)
	}
	var disk []diskReplica
	if int(node) < len(nn.diskTruth) {
		disk = nn.diskTruth[node]
	}
	reported := 0
	for _, d := range disk {
		if !nn.putReplica(d.block, node, d.kind) {
			continue // the namespace dropped the block meanwhile
		}
		nn.journalAdd(journalRecord{op: opAddReplica, block: d.block, node: node, kind: d.kind})
		nn.publishReplica(event.ReplicaAdd, d.block, node, d.kind == Dynamic)
		if d.corrupt {
			// The bad bytes are still on disk; the restarted master just
			// does not know yet — the mark models the disk, and re-applying
			// it keeps detection-on-read working across the failover.
			nn.setCorrupt(d.block, node)
			nn.journalAdd(journalRecord{op: opMarkCorrupt, block: d.block, node: node})
		}
		reported++
	}
	delete(nn.warming, node)
	if nn.bus != nil {
		ev := event.New(event.BlockReport)
		ev.Node = int32(node)
		ev.Rack = int32(nn.topo.Rack(node))
		ev.Aux = int64(reported)
		nn.bus.Publish(ev)
	}
	if len(nn.warming) == 0 {
		nn.finishWarming()
	}
	return reported, nil
}

// finishWarming ends a report-mode recovery: the view is as warm as it
// will get, so fold the reported state into a fresh checkpoint.
func (nn *NameNode) finishWarming() {
	nn.warming = nil
	nn.diskTruth = nil
	nn.rollCheckpoint()
}
