package dfs

import (
	"fmt"
	"slices"

	"dare/internal/snapshot"
	"dare/internal/topology"
)

// State image for the name node: the full metadata registry (files,
// blocks, replica locations, corruption marks), liveness (failed nodes,
// warming set, churn/down latches), the metadata journal with its rolling
// checkpoint, the crash-time disk truth, and the placement RNG stream.
// Derived structures (perNode mirrors, byte accounting, numBlocks) are
// rebuilt on decode exactly as master recovery rebuilds them — the decode
// path reuses the canonical orders encodeRegistry writes, so a restored
// registry re-encodes to exactly the image it was decoded from.

// encodeRegistry writes one registry's authoritative state: files and
// blocks in dense ID order, per-block locations node-sorted with the
// corruption bit inline (corrupt is a subset of locations by invariant).
func encodeRegistry(e *snapshot.Enc,
	nextFile FileID, nextBlock BlockID,
	files map[FileID]*File,
	block func(BlockID) *Block,
	locations func(BlockID) map[topology.NodeID]ReplicaKind,
	corrupt func(BlockID, topology.NodeID) bool,
	failed map[topology.NodeID]bool,
	churned bool, n int,
) {
	e.I64(int64(nextFile))
	e.I64(int64(nextBlock))
	for id := FileID(0); id < nextFile; id++ {
		f := files[id]
		e.Str(f.Name)
		e.F64(f.Created)
		e.U32(uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.I64(int64(b))
		}
	}
	var nodes []topology.NodeID
	for id := BlockID(0); id < nextBlock; id++ {
		blk := block(id)
		e.I64(int64(blk.File))
		e.Int(blk.Index)
		e.I64(blk.Size)
		locs := locations(id)
		nodes = nodes[:0]
		for node := range locs {
			nodes = append(nodes, node)
		}
		slices.Sort(nodes)
		e.U32(uint32(len(nodes)))
		for _, node := range nodes {
			e.Int(int(node))
			e.U8(uint8(locs[node]))
			e.Bool(corrupt(id, node))
		}
	}
	for node := 0; node < n; node++ {
		e.Bool(failed[topology.NodeID(node)])
	}
	e.Bool(churned)
}

// decodedRegistry is the raw result of decodeRegistry, applied to either
// the live registry or a journal checkpoint.
type decodedRegistry struct {
	nextFile  FileID
	nextBlock BlockID
	files     map[FileID]*File
	blocks    map[BlockID]*Block
	locations map[BlockID]map[topology.NodeID]ReplicaKind
	corrupt   map[BlockID]map[topology.NodeID]bool
	failed    map[topology.NodeID]bool
	churned   bool
}

func decodeRegistry(d *snapshot.Dec, n int) (*decodedRegistry, error) {
	r := &decodedRegistry{
		nextFile:  FileID(d.I64()),
		nextBlock: BlockID(d.I64()),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	// Both counts size maps and drive loops, so bound them by the bytes
	// left the way Dec.Count bounds element counts: a file record takes at
	// least 16 bytes (name length, created, block count), a block at
	// least 28 (file, index, size, location count).
	if r.nextFile < 0 || int64(r.nextFile) > int64(d.Remaining()/16) ||
		r.nextBlock < 0 || int64(r.nextBlock) > int64(d.Remaining()/28) {
		return nil, fmt.Errorf("%w: registry claims %d files and %d blocks with %d bytes left",
			snapshot.ErrFormat, r.nextFile, r.nextBlock, d.Remaining())
	}
	r.files = make(map[FileID]*File, r.nextFile)
	for id := FileID(0); id < r.nextFile; id++ {
		f := &File{ID: id, Name: d.Str(), Created: d.F64()}
		nb := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		f.Blocks = make([]BlockID, nb)
		for i := range f.Blocks {
			f.Blocks[i] = BlockID(d.I64())
		}
		r.files[id] = f
	}
	r.blocks = make(map[BlockID]*Block, r.nextBlock)
	r.locations = make(map[BlockID]map[topology.NodeID]ReplicaKind, r.nextBlock)
	for id := BlockID(0); id < r.nextBlock; id++ {
		blk := &Block{ID: id, File: FileID(d.I64()), Index: d.Int(), Size: d.I64()}
		r.blocks[id] = blk
		nl := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		locs := make(map[topology.NodeID]ReplicaKind, nl)
		for i := 0; i < nl; i++ {
			node := topology.NodeID(d.Int())
			kind := ReplicaKind(d.U8())
			if d.Bool() {
				if r.corrupt == nil {
					r.corrupt = make(map[BlockID]map[topology.NodeID]bool)
				}
				if r.corrupt[id] == nil {
					r.corrupt[id] = make(map[topology.NodeID]bool)
				}
				r.corrupt[id][node] = true
			}
			locs[node] = kind
		}
		r.locations[id] = locs
	}
	r.failed = make(map[topology.NodeID]bool)
	for node := 0; node < n; node++ {
		if d.Bool() {
			r.failed[topology.NodeID(node)] = true
		}
	}
	r.churned = d.Bool()
	return r, d.Err()
}

// EncodeState serializes the name node's complete mutable state.
func (nn *NameNode) EncodeState(e *snapshot.Enc) error {
	n := nn.topo.N()
	encodeRegistry(e, nn.nextFile, nn.nextBlock, nn.files,
		func(id BlockID) *Block { return nn.shard(id).blocks[id] },
		func(id BlockID) map[topology.NodeID]ReplicaKind { return nn.shard(id).locations[id] },
		func(id BlockID, node topology.NodeID) bool { return nn.shard(id).corrupt[id][node] },
		nn.failed, nn.churned, n)

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
		s := j.snap
		encodeRegistry(e, s.nextFile, s.nextBlock, s.files,
			func(id BlockID) *Block { return s.blocks[id] },
			func(id BlockID) map[topology.NodeID]ReplicaKind { return s.locations[id] },
			func(id BlockID, node topology.NodeID) bool { return s.corrupt[id][node] },
			s.failed, s.churned, n)
	}
	return nn.rng.EncodeState(e)
}

// DecodeState restores the name node from an EncodeState image. The name
// node must be freshly constructed over the same topology and replication
// factor; every derived structure (perNode mirrors, byte accounting,
// block count) is rebuilt from the decoded registry, the same path master
// recovery exercises.
func (nn *NameNode) DecodeState(d *snapshot.Dec) error {
	n := nn.topo.N()
	reg, err := decodeRegistry(d, n)
	if err != nil {
		return fmt.Errorf("dfs: registry state: %w", err)
	}
	nn.files = reg.files
	for si := range nn.shards {
		nn.shards[si].blocks = make(map[BlockID]*Block)
		nn.shards[si].locations = make(map[BlockID]map[topology.NodeID]ReplicaKind)
		nn.shards[si].corrupt = nil
	}
	nn.numBlocks = 0
	nn.perNode = make([]map[BlockID]ReplicaKind, n)
	for i := range nn.perNode {
		nn.perNode[i] = make(map[BlockID]ReplicaKind)
	}
	nn.primaryBytes = make([]int64, n)
	nn.dynamicBytes = make([]int64, n)
	for id, blk := range reg.blocks {
		nn.shard(id).blocks[id] = blk
		nn.numBlocks++
	}
	for id, locs := range reg.locations {
		size := reg.blocks[id].Size
		for node, kind := range locs {
			nn.perNode[node][id] = kind
			if kind == Primary {
				nn.primaryBytes[node] += size
			} else {
				nn.dynamicBytes[node] += size
			}
		}
		nn.shard(id).locations[id] = locs
	}
	for id, nodes := range reg.corrupt {
		sh := nn.shard(id)
		if sh.corrupt == nil {
			sh.corrupt = make(map[BlockID]map[topology.NodeID]bool)
		}
		sh.corrupt[id] = nodes
	}
	nn.failed = reg.failed
	nn.churned = reg.churned
	nn.nextFile = reg.nextFile
	nn.nextBlock = reg.nextBlock

	nn.down = d.Bool()
	if d.Bool() {
		nn.warming = make(map[topology.NodeID]bool)
		for node := 0; node < n; node++ {
			if d.Bool() {
				nn.warming[topology.NodeID(node)] = true
			}
		}
	} else {
		nn.warming = nil
	}
	if d.Bool() {
		nd := d.Count(4)
		if d.Err() != nil {
			return d.Err()
		}
		nn.diskTruth = make([][]diskReplica, nd)
		for i := range nn.diskTruth {
			nr := d.Count(8)
			if d.Err() != nil {
				return d.Err()
			}
			disk := make([]diskReplica, nr)
			for k := range disk {
				disk[k] = diskReplica{
					block:   BlockID(d.I64()),
					kind:    ReplicaKind(d.U8()),
					corrupt: d.Bool(),
				}
			}
			nn.diskTruth[i] = disk
		}
	} else {
		nn.diskTruth = nil
	}

	j := &nn.journal
	j.enabled = d.Bool()
	j.every = d.Int()
	nr := d.Count(8)
	if d.Err() != nil {
		return d.Err()
	}
	j.records = make([]journalRecord, nr)
	for i := range j.records {
		j.records[i] = journalRecord{
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
	}
	j.folded = d.U64()
	j.checkpoints = d.Int()
	if d.Bool() {
		sreg, err := decodeRegistry(d, n)
		if err != nil {
			return fmt.Errorf("dfs: journal checkpoint state: %w", err)
		}
		snap := &registrySnapshot{
			files:     sreg.files,
			blocks:    sreg.blocks,
			locations: sreg.locations,
			corrupt:   sreg.corrupt,
			failed:    sreg.failed,
			churned:   sreg.churned,
			nextFile:  sreg.nextFile,
			nextBlock: sreg.nextBlock,
		}
		j.snap = snap
	} else {
		j.snap = nil
	}
	if err := nn.rng.DecodeState(d); err != nil {
		return fmt.Errorf("dfs: rng state: %w", err)
	}
	return d.Err()
}
