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
// The registry has one walk, walkRegistry. The journal checkpoint is the
// registry's image taken at the last roll, so WalkState copies its bytes
// as they are. Master recovery and a state restore both load a registry
// image through walkRegistry, which rebuilds the derived structures
// (per-node block lists, byte accounting, the corruption counter) through
// putReplica and setCorrupt; it reads the canonical orders it writes, so
// a loaded registry re-encodes to exactly the image it came from.

// walkRegistry walks the registry's authoritative state: files and blocks
// in dense ID order, per-block holder lists in their node-sorted order
// with the corruption bit inline. Decoding replaces the registry and
// rebuilds every derived structure; an image that names a node outside
// the cluster, an unknown replica kind, or one node twice for a block is
// a format error.
//
// A decode first reads the file and block records ahead (scanRegistry)
// to learn every list's length, so the records, the files' block lists,
// the holder lists and the per-node lists each come from one slab: a
// block costs no allocation. Each slab is bounded by the counts the
// bytes left allow, so a hostile image cannot size a large one.
func (nn *NameNode) walkRegistry(w *snapshot.Walker) error {
	n := nn.topo.N()
	nextFile, nextBlock := int64(len(nn.files)), int64(len(nn.blocks))
	w.I64(&nextFile)
	w.I64(&nextBlock)
	// Decoding cuts the files' block lists and the holder lists from these.
	var fileBlocks []BlockID
	var holders []replica
	if w.Decoding() {
		// Both counts size allocations and drive loops, so bound them by the
		// bytes left the way Count bounds element counts: a file record
		// takes at least 16 bytes (name length, created, block count), a
		// block at least 28 (file, index, size, location count).
		left := int64(w.Dec().Remaining())
		if nextFile < 0 || nextFile > left/16 || nextBlock < 0 || nextBlock > left/28 {
			return fmt.Errorf("%w: registry claims %d files and %d blocks with %d bytes left",
				snapshot.ErrFormat, nextFile, nextBlock, left)
		}
		counts := make([]int, n)
		numIDs, numHolders := scanRegistry(*w.Dec(), int(nextFile), int(nextBlock), counts)
		fileBlocks = make([]BlockID, numIDs)
		holders = make([]replica, numHolders)
		nn.cutNodeLists(counts, numHolders)
		files := make([]File, nextFile)
		nn.files = make([]*File, nextFile)
		for id := range files {
			files[id].ID = FileID(id)
			nn.files[id] = &files[id]
		}
		blocks := make([]Block, nextBlock)
		nn.blocks = make([]*Block, nextBlock)
		for id := range blocks {
			blocks[id].ID = BlockID(id)
			nn.blocks[id] = &blocks[id]
		}
		nn.locations = make([][]replica, nextBlock)
		nn.corrupt = 0
		clear(nn.primaryBytes)
		clear(nn.dynamicBytes)
		clear(nn.failed)
	}

	for _, f := range nn.files {
		w.Str(&f.Name)
		w.F64(&f.Created)
		count := len(f.Blocks)
		w.Count(&count, 8)
		if w.Decoding() {
			// scanRegistry read this count from the same bytes.
			f.Blocks, fileBlocks = fileBlocks[:count:count], fileBlocks[count:]
		}
		for i := range f.Blocks {
			snapshot.Int(w, &f.Blocks[i])
		}
	}
	for id, blk := range nn.blocks {
		snapshot.Int(w, &blk.File)
		snapshot.Int(w, &blk.Index)
		w.I64(&blk.Size)
		locs := nn.locations[id]
		count := len(locs)
		// A location entry is a node, a kind and a corruption bit.
		w.Count(&count, 10)
		if w.Decoding() && count > 0 {
			nn.locations[id], holders = holders[:0:count], holders[count:]
		}
		for i := range count {
			var r replica
			if !w.Decoding() {
				r = locs[i]
			}
			snapshot.Int(w, &r.node)
			snapshot.Byte(w, &r.kind)
			w.Bool(&r.corrupt)
			if !w.Decoding() {
				continue
			}
			if err := w.Err(); err != nil {
				return err
			}
			if r.node < 0 || int(r.node) >= n || !r.kind.valid() {
				return fmt.Errorf("%w: block %d lists node %d with replica kind %d in a %d-node cluster",
					snapshot.ErrFormat, id, r.node, r.kind, n)
			}
			if !nn.putReplica(blk.ID, r.node, r.kind) {
				return fmt.Errorf("%w: block %d lists node %d twice", snapshot.ErrFormat, id, r.node)
			}
			if r.corrupt {
				nn.setCorrupt(blk.ID, r.node)
			}
		}
	}
	for node := range topology.NodeID(n) {
		failed := nn.failed[node]
		w.Bool(&failed)
		if failed {
			nn.failed[node] = true
		}
	}
	w.Bool(&nn.churned)
	return w.Err()
}

// scanRegistry reads ahead, on its own copy d of the decoder, the file
// and block records walkRegistry is about to decode, and reports how
// many block IDs the files list and how many holders the blocks list. It
// adds each holder to counts[node] for the nodes inside the cluster (the
// walk rejects the others). Its reads are the walk's, with the same
// Count bounds, so every list it measures is the list the walk decodes
// until the walk fails.
func scanRegistry(d snapshot.Dec, files, blocks int, counts []int) (fileBlocks, holders int) {
	for range files {
		d.Blob() // name
		d.F64()  // created
		k := d.Count(8)
		fileBlocks += k
		for range k {
			d.I64()
		}
	}
	for range blocks {
		d.I64() // file
		d.I64() // index
		d.I64() // size
		k := d.Count(10)
		holders += k
		for range k {
			if node := d.I64(); node >= 0 && node < int64(len(counts)) {
				counts[node]++
			}
			d.U8() // kind
			d.U8() // corruption bit
		}
	}
	return fileBlocks, holders
}

// WalkState walks the name node's complete mutable state. Decoding needs a
// name node freshly constructed over the same topology and replication
// factor; the journal checkpoint is checked by loading it into a scratch
// name node, then kept as the bytes it is.
func (nn *NameNode) WalkState(w *snapshot.Walker) error {
	n := topology.NodeID(nn.topo.N())
	if err := nn.walkRegistry(w); err != nil {
		return fmt.Errorf("dfs: registry state: %w", err)
	}

	w.Bool(&nn.down)
	warming := nn.warming != nil
	w.Bool(&warming)
	if w.Decoding() {
		nn.warming = nil
		if warming {
			nn.warming = make(map[topology.NodeID]bool)
		}
	}
	for node := topology.NodeID(0); warming && node < n; node++ {
		warm := nn.warming[node]
		w.Bool(&warm)
		if warm {
			nn.warming[node] = true
		}
	}
	hasTruth := nn.diskTruth != nil
	w.Bool(&hasTruth)
	if w.Decoding() {
		nn.diskTruth = nil
	}
	if hasTruth {
		nd := len(nn.diskTruth)
		w.Count(&nd, 4)
		if w.Decoding() {
			nn.diskTruth = make([][]diskReplica, nd)
		}
		for i := range nn.diskTruth {
			// A disk entry is a block, a kind and a corruption bit.
			snapshot.Len(w, &nn.diskTruth[i], 10)
			for k := range nn.diskTruth[i] {
				dr := &nn.diskTruth[i][k]
				snapshot.Int(w, &dr.block)
				snapshot.Byte(w, &dr.kind)
				w.Bool(&dr.corrupt)
				if w.Decoding() && !dr.kind.valid() {
					return fmt.Errorf("%w: node %d's disk holds replica kind %d", snapshot.ErrFormat, i, dr.kind)
				}
			}
		}
	}

	j := &nn.journal
	w.Bool(&j.enabled)
	snapshot.Int(w, &j.every)
	snapshot.Len(w, &j.records, 8)
	for i := range j.records {
		r := &j.records[i]
		snapshot.Byte(w, &r.op)
		snapshot.Int(w, &r.file)
		snapshot.Int(w, &r.block)
		snapshot.Int(w, &r.node)
		snapshot.Byte(w, &r.kind)
		snapshot.Int(w, &r.index)
		w.I64(&r.size)
		w.Str(&r.name)
		w.F64(&r.created)
		if w.Decoding() && !r.valid(int(n)) {
			return fmt.Errorf("%w: journal record %d (op %d, node %d, kind %d) is none the journal writes in a %d-node cluster",
				snapshot.ErrFormat, i, r.op, r.node, r.kind, n)
		}
	}
	w.U64(&j.folded)
	snapshot.Int(w, &j.checkpoints)
	hasSnap := j.snap != nil
	w.Bool(&hasSnap)
	if d := w.Dec(); d == nil {
		if hasSnap {
			w.Enc().Raw(j.snap.Data())
		}
	} else {
		// EnableJournal takes the first checkpoint, so a journal has one
		// exactly when it is enabled; recovery loads it.
		if d.Err() == nil && hasSnap != j.enabled {
			return fmt.Errorf("%w: journal enabled %v but checkpoint present %v", snapshot.ErrFormat, j.enabled, hasSnap)
		}
		j.snap = nil
		if hasSnap {
			image := d.Rest()
			if err := NewNameNode(nn.topo, nn.replication, nil).walkRegistry(w); err != nil {
				return fmt.Errorf("dfs: journal checkpoint state: %w", err)
			}
			j.snap = snapshot.NewEnc()
			j.snap.Raw(image[:len(image)-d.Remaining()])
		}
	}
	if err := nn.rng.WalkState(w); err != nil {
		return fmt.Errorf("dfs: rng state: %w", err)
	}
	return w.Err()
}
