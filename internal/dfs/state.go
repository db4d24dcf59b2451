package dfs

import (
	"fmt"

	"dare/internal/snapshot"
	"dare/internal/topology"
)

// State image for the name node: the full metadata registry (files,
// blocks, replica locations, corruption marks), liveness (failed nodes,
// warming set, churn/down latches), the metadata journal with its rolling
// checkpoint, the crash-time disk truth, and the placement RNG stream.
//
// The registry has one image, encodeRegistry's, and one loader,
// loadRegistry. The journal checkpoint is that image taken at the last
// roll, so EncodeState copies its bytes as they are. Master recovery and
// DecodeState both rebuild the derived structures (per-node block lists,
// byte accounting, the corruption counter) by loading an image through
// putReplica and setCorrupt; the loader reads the canonical orders
// encodeRegistry writes, so a loaded registry re-encodes to exactly the
// image it came from.

// encodeRegistry writes the registry's authoritative state: files and
// blocks in dense ID order, per-block holder lists in their node-sorted
// order with the corruption bit inline.
func (nn *NameNode) encodeRegistry(e *snapshot.Enc) {
	e.I64(int64(nn.nextFile))
	e.I64(int64(len(nn.blocks)))
	for id := FileID(0); id < nn.nextFile; id++ {
		f := nn.files[id]
		e.Str(f.Name)
		e.F64(f.Created)
		e.U32(uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.I64(int64(b))
		}
	}
	for id, blk := range nn.blocks {
		e.I64(int64(blk.File))
		e.Int(blk.Index)
		e.I64(blk.Size)
		locs := nn.locations[id]
		e.U32(uint32(len(locs)))
		for _, r := range locs {
			e.Int(int(r.node))
			e.U8(uint8(r.kind))
			e.Bool(r.corrupt)
		}
	}
	for node := 0; node < nn.topo.N(); node++ {
		e.Bool(nn.failed[topology.NodeID(node)])
	}
	e.Bool(nn.churned)
}

// loadRegistry replaces the registry with an encodeRegistry image and
// rebuilds every derived structure from it. An image that names a node
// outside the cluster, an unknown replica kind, or one node twice for a
// block is a format error.
func (nn *NameNode) loadRegistry(d *snapshot.Dec) error {
	n := nn.topo.N()
	nextFile, nextBlock := FileID(d.I64()), BlockID(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	// Both counts size allocations and drive loops, so bound them by the bytes
	// left the way Dec.Count bounds element counts: a file record takes at
	// least 16 bytes (name length, created, block count), a block at
	// least 28 (file, index, size, location count).
	if nextFile < 0 || int64(nextFile) > int64(d.Remaining()/16) ||
		nextBlock < 0 || int64(nextBlock) > int64(d.Remaining()/28) {
		return fmt.Errorf("%w: registry claims %d files and %d blocks with %d bytes left",
			snapshot.ErrFormat, nextFile, nextBlock, d.Remaining())
	}
	nn.files = make(map[FileID]*File, nextFile)
	nn.blocks = make([]*Block, nextBlock)
	nn.locations = make([][]replica, nextBlock)
	nn.corrupt = 0
	for node := range nn.perNode {
		nn.perNode[node] = nn.perNode[node][:0]
	}
	clear(nn.primaryBytes)
	clear(nn.dynamicBytes)
	clear(nn.failed)
	nn.nextFile = nextFile

	for id := FileID(0); id < nextFile; id++ {
		f := &File{ID: id, Name: d.Str(), Created: d.F64()}
		f.Blocks = make([]BlockID, d.Count(8))
		for i := range f.Blocks {
			f.Blocks[i] = BlockID(d.I64())
		}
		nn.files[id] = f
	}
	blocks := make([]Block, nextBlock)
	for id := range blocks {
		b := BlockID(id)
		blocks[id] = Block{ID: b, File: FileID(d.I64()), Index: d.Int(), Size: d.I64()}
		nn.blocks[id] = &blocks[id]
		// A location entry is a node, a kind and a corruption bit.
		count := d.Count(10)
		if count > 0 {
			nn.locations[id] = make([]replica, 0, max(count, nn.replication))
		}
		for range count {
			node, kind, corrupt := d.Int(), ReplicaKind(d.U8()), d.Bool()
			if d.Err() != nil {
				return d.Err()
			}
			if node < 0 || node >= n || !kind.valid() {
				return fmt.Errorf("%w: block %d lists node %d with replica kind %d in a %d-node cluster",
					snapshot.ErrFormat, id, node, kind, n)
			}
			if !nn.putReplica(b, topology.NodeID(node), kind) {
				return fmt.Errorf("%w: block %d lists node %d twice", snapshot.ErrFormat, id, node)
			}
			if corrupt {
				nn.setCorrupt(b, topology.NodeID(node))
			}
		}
	}
	for node := 0; node < n; node++ {
		if d.Bool() {
			nn.failed[topology.NodeID(node)] = true
		}
	}
	nn.churned = d.Bool()
	return d.Err()
}

// EncodeState serializes the name node's complete mutable state.
func (nn *NameNode) EncodeState(e *snapshot.Enc) error {
	n := nn.topo.N()
	nn.encodeRegistry(e)

	e.Bool(nn.down)
	e.Bool(nn.warming != nil)
	if nn.warming != nil {
		for node := 0; node < n; node++ {
			e.Bool(nn.warming[topology.NodeID(node)])
		}
	}
	e.Bool(nn.diskTruth != nil)
	if nn.diskTruth != nil {
		e.U32(uint32(len(nn.diskTruth)))
		for _, disk := range nn.diskTruth {
			e.U32(uint32(len(disk)))
			for _, dr := range disk {
				e.I64(int64(dr.block))
				e.U8(uint8(dr.kind))
				e.Bool(dr.corrupt)
			}
		}
	}

	j := &nn.journal
	e.Bool(j.enabled)
	e.Int(j.every)
	e.U32(uint32(len(j.records)))
	for _, r := range j.records {
		e.U8(uint8(r.op))
		e.I64(int64(r.file))
		e.I64(int64(r.block))
		e.Int(int(r.node))
		e.U8(uint8(r.kind))
		e.Int(r.index)
		e.I64(r.size)
		e.Str(r.name)
		e.F64(r.created)
	}
	e.U64(j.folded)
	e.Int(j.checkpoints)
	e.Bool(j.snap != nil)
	if j.snap != nil {
		e.Raw(j.snap.Data())
	}
	return nn.rng.EncodeState(e)
}

// DecodeState restores the name node from an EncodeState image. The name
// node must be freshly constructed over the same topology and replication
// factor; every derived structure (per-node block lists, byte accounting,
// the corruption counter) is rebuilt by loadRegistry, the path master recovery takes.
// The journal checkpoint is checked by loading it into a scratch name
// node, then kept as the bytes it is.
func (nn *NameNode) DecodeState(d *snapshot.Dec) error {
	n := nn.topo.N()
	if err := nn.loadRegistry(d); err != nil {
		return fmt.Errorf("dfs: registry state: %w", err)
	}

	nn.down = d.Bool()
	nn.warming = nil
	if d.Bool() {
		nn.warming = make(map[topology.NodeID]bool)
		for node := 0; node < n; node++ {
			if d.Bool() {
				nn.warming[topology.NodeID(node)] = true
			}
		}
	}
	nn.diskTruth = nil
	if d.Bool() {
		// A disk entry is a block, a kind and a corruption bit.
		nn.diskTruth = make([][]diskReplica, d.Count(4))
		for i := range nn.diskTruth {
			disk := make([]diskReplica, d.Count(10))
			for k := range disk {
				disk[k] = diskReplica{block: BlockID(d.I64()), kind: ReplicaKind(d.U8()), corrupt: d.Bool()}
				if !disk[k].kind.valid() {
					return fmt.Errorf("%w: node %d's disk holds replica kind %d", snapshot.ErrFormat, i, disk[k].kind)
				}
			}
			nn.diskTruth[i] = disk
		}
	}

	j := &nn.journal
	j.enabled = d.Bool()
	j.every = d.Int()
	j.records = make([]journalRecord, d.Count(8))
	for i := range j.records {
		r := journalRecord{
			op:      journalOp(d.U8()),
			file:    FileID(d.I64()),
			block:   BlockID(d.I64()),
			node:    topology.NodeID(d.Int()),
			kind:    ReplicaKind(d.U8()),
			index:   d.Int(),
			size:    d.I64(),
			name:    d.Str(),
			created: d.F64(),
		}
		if !r.valid(n) {
			return fmt.Errorf("%w: journal record %d (op %d, node %d, kind %d) is none the journal writes in a %d-node cluster",
				snapshot.ErrFormat, i, r.op, r.node, r.kind, n)
		}
		j.records[i] = r
	}
	j.folded = d.U64()
	j.checkpoints = d.Int()
	j.snap = nil
	hasSnap := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	// EnableJournal takes the first checkpoint, so a journal has one
	// exactly when it is enabled; recovery loads it.
	if hasSnap != j.enabled {
		return fmt.Errorf("%w: journal enabled %v but checkpoint present %v", snapshot.ErrFormat, j.enabled, hasSnap)
	}
	if hasSnap {
		image := d.Rest()
		if err := NewNameNode(nn.topo, nn.replication, nil).loadRegistry(d); err != nil {
			return fmt.Errorf("dfs: journal checkpoint state: %w", err)
		}
		j.snap = snapshot.NewEnc()
		j.snap.Raw(image[:len(image)-d.Remaining()])
	}
	if err := nn.rng.DecodeState(d); err != nil {
		return fmt.Errorf("dfs: rng state: %w", err)
	}
	return d.Err()
}
