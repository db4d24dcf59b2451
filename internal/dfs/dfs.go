// Package dfs models the distributed file system that co-exists with the
// compute nodes in a MapReduce cluster (GFS/HDFS, §II-A). Using HDFS
// terminology as the paper does: a name node holds all metadata (files,
// blocks, replica locations), data nodes hold the block replicas.
//
// Files are read-only sequences of fixed-size blocks. Each block starts
// with ReplicationFactor pinned ("primary") replicas placed by the
// rack-aware default policy; DARE later adds and evicts *dynamic* replicas
// on top of those. Dynamic replicas are first-order replicas — the name
// node registers them and the scheduler sees them like any other (§IV-B) —
// but only dynamic replicas may be evicted.
package dfs

import (
	"errors"
	"fmt"
	"slices"

	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/stats"
	"dare/internal/topology"
)

// ErrNodeDown marks metadata operations addressed to a failed data node;
// callers racing a failure (e.g. a DARE announce whose node died after the
// decision) can detect it with errors.Is and drop the operation.
var ErrNodeDown = errors.New("node is down")

// BlockID identifies a block cluster-wide.
type BlockID int64

// FileID identifies a file cluster-wide.
type FileID int32

// ReplicaKind distinguishes pinned primaries from DARE-created replicas.
type ReplicaKind int8

const (
	// Primary replicas implement the static replication factor; they are
	// never evicted.
	Primary ReplicaKind = iota
	// Dynamic replicas are created by DARE from remote reads and may be
	// evicted to respect the replication budget.
	Dynamic
)

// valid reports whether k is a replica kind this package defines.
func (k ReplicaKind) valid() bool { return k == Primary || k == Dynamic }

// Block is one fixed-size unit of a file.
type Block struct {
	ID    BlockID
	File  FileID
	Index int
	Size  int64
}

// File is a named, read-only sequence of blocks.
type File struct {
	ID     FileID
	Name   string
	Blocks []BlockID
	// Created is the simulated creation time (seconds); used by the trace
	// analyzer for age-at-access distributions.
	Created float64
}

// NameNode is the master metadata service. It is single-threaded like the
// simulation that drives it.
type NameNode struct {
	topo        *topology.Topology
	rng         *stats.RNG
	replication int

	// files[f], blocks[b] and locations[b] describe file f and block b:
	// IDs are dense (CreateFiles numbers files len(files), len(files)+1,
	// ... and blocks likewise; replayJournal and walkRegistry refuse
	// gaps), so the registry is indexed by ID, not hashed.
	files []*File
	// locations[b] lists b's holders strictly node-sorted, each with its
	// kind and corruption mark; that is the order walkRegistry writes.
	// Block pointers are stable: growing blocks never moves a Block.
	blocks    []*Block
	locations [][]replica
	// corrupt counts the replicas whose corruption mark is set.
	corrupt int
	// perNode[n] lists the blocks node n stores, ascending, for placement,
	// failure scrubs and the popularity-index metric (Fig. 11).
	perNode [][]BlockID
	// primaryBytes[n] and dynamicBytes[n] track storage accounting.
	primaryBytes []int64
	dynamicBytes []int64

	// placed is choosePrimaries' result buffer, reused block to block.
	placed []topology.NodeID

	// failed marks downed data nodes; placement avoids them.
	failed map[topology.NodeID]bool
	// churned latches once any node has ever failed. Unlike len(failed) it
	// survives recovery: a recovered node rejoins empty, so blocks may stay
	// under-replicated (or lost for good) even with every node back up, and
	// the replication-floor invariant must stay relaxed.
	churned bool

	// bus, when set, receives an event for every replica-set mutation the
	// name node performs: primary placement, dynamic replica
	// announce/evict, failure loss, repair, balancer moves, and node
	// fail/recover transitions. A nil bus publishes nothing.
	bus *event.Bus

	// Control-plane fault tolerance (journal.go): the metadata journal with
	// its rolling checkpoint, the crashed latch, and — while a report-mode
	// recovery warms — the set of nodes whose block reports are still
	// outstanding plus the crash-time capture of every node's disk
	// contents. All zero-valued (and zero-cost) unless EnableJournal ran.
	journal   metaJournal
	down      bool
	warming   map[topology.NodeID]bool
	diskTruth [][]diskReplica

	// repairTerms ranks repair-target candidates lexicographically (see
	// RepairTarget); the two score buffers are reused across candidates so
	// ranking allocates nothing per repair.
	repairTerms []policy.Term
	repairScore []float64
	repairBest  []float64
}

// replica is one holder of a block. corrupt marks a replica whose
// (modelled) checksum no longer matches: metadata still lists it —
// corruption is latent until a reader verifies the checksum and
// quarantines it (see integrity.go).
type replica struct {
	node    topology.NodeID
	kind    ReplicaKind
	corrupt bool
}

// locs returns b's holders, node-sorted (nil if b is unknown).
func (nn *NameNode) locs(b BlockID) []replica {
	if b < 0 || int(b) >= len(nn.locations) {
		return nil
	}
	return nn.locations[b]
}

// search returns node's index in the node-sorted holder list locs, or
// the index it would be inserted at, and whether it is there. Holder
// lists are a few entries long, so a linear scan beats a binary search.
func search(locs []replica, node topology.NodeID) (int, bool) {
	i := 0
	for i < len(locs) && locs[i].node < node {
		i++
	}
	return i, i < len(locs) && locs[i].node == node
}

// holder returns node's replica of b, or nil.
func (nn *NameNode) holder(b BlockID, node topology.NodeID) *replica {
	locs := nn.locs(b)
	if i, ok := search(locs, node); ok {
		return &locs[i]
	}
	return nil
}

// NewNameNode creates a name node for the given topology with the given
// static replication factor. rng drives placement randomness and must be a
// dedicated sub-stream of the experiment seed.
func NewNameNode(topo *topology.Topology, replication int, rng *stats.RNG) *NameNode {
	if replication < 1 {
		panic(fmt.Sprintf("dfs: replication factor must be >= 1, got %d", replication))
	}
	n := topo.N()
	nn := &NameNode{
		topo:         topo,
		rng:          rng,
		replication:  replication,
		perNode:      make([][]BlockID, n),
		primaryBytes: make([]int64, n),
		dynamicBytes: make([]int64, n),
		repairTerms:  policy.DefaultRepairTerms(),
	}
	nn.failed = make(map[topology.NodeID]bool)
	return nn
}

// SetBus installs the event bus the name node publishes to. Wiring
// happens exactly once, at cluster construction; installing a second bus
// panics — a silent overwrite would detach every subscriber registered so
// far (the failure mode the old single-slot listener setter had).
func (nn *NameNode) SetBus(bus *event.Bus) {
	if nn.bus != nil {
		panic("dfs: event bus already installed on this name node")
	}
	nn.bus = bus
}

// publishReplica emits one replica-set mutation on the bus, annotated with
// the block's file, size, and the holding node's rack. Flag marks dynamic
// (budget-governed) copies.
func (nn *NameNode) publishReplica(kind event.Kind, b BlockID, node topology.NodeID, dynamic bool) {
	if nn.bus == nil {
		return
	}
	ev := event.New(kind)
	ev.Block = int64(b)
	ev.Node = int32(node)
	ev.Rack = int32(nn.topo.Rack(node))
	ev.Flag = dynamic
	if blk := nn.Block(b); blk != nil {
		ev.File = int32(blk.File)
		ev.Aux = blk.Size
	}
	nn.bus.Publish(ev)
}

// N reports the number of data nodes.
func (nn *NameNode) N() int { return nn.topo.N() }

// FileSpec names one file of a population and its length in blocks.
type FileSpec struct {
	Name   string
	Blocks int
}

// CreateFiles creates one file per spec at simulated time now, each a
// sequence of blockSize-byte blocks, places every block's primary
// replicas with the rack-aware default policy, and returns the files in
// spec order. Nothing is created when any spec is invalid.
//
// The population is built in bulk. Every block's primaries are drawn
// first, in block order: choosePrimaries reads only the topology, the
// failed set and the RNG, none of which registering a replica touches, so
// these are the draws block-by-block placement makes. The draws size
// every list the population needs, so the Block and File records, the
// files' block lists, the holder lists and, at genesis, the per-node
// lists are cut from one slab each, and a block costs no allocation.
// Blocks are then registered, journaled and published one by one, as a
// file at a time would be.
func (nn *NameNode) CreateFiles(specs []FileSpec, blockSize int64, now float64) ([]*File, error) {
	total := 0
	for _, s := range specs {
		if s.Blocks < 1 {
			return nil, fmt.Errorf("dfs: file %q must have at least one block", s.Name)
		}
		total += s.Blocks
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %d", blockSize)
	}
	if nn.down {
		return nil, fmt.Errorf("dfs: create %d files: %w", len(specs), ErrMasterDown)
	}
	// Block k of the population is held by placed[ends[k]:ends[k+1]].
	ends := make([]int, total+1)
	placed := make([]topology.NodeID, 0, total*min(nn.replication, nn.topo.N()))
	for k := range total {
		placed = append(placed, nn.choosePrimaries()...)
		ends[k+1] = len(placed)
	}
	if len(nn.blocks) == 0 {
		// Genesis proper: no node lists a block yet. A later population
		// grows the lists it touches as any insert does.
		counts := make([]int, len(nn.perNode))
		for _, node := range placed {
			counts[node]++
		}
		nn.cutNodeLists(counts, len(placed))
	}

	holders := make([]replica, len(placed))
	blocks := make([]Block, total)
	ids := make([]BlockID, total)
	files := make([]File, len(specs))
	out := make([]*File, len(specs))
	nn.files = slices.Grow(nn.files, len(specs))
	nn.blocks = slices.Grow(nn.blocks, total)
	nn.locations = slices.Grow(nn.locations, total)
	k := 0
	for i, s := range specs {
		f := &files[i]
		*f = File{ID: FileID(len(nn.files)), Name: s.Name, Created: now, Blocks: ids[k : k : k+s.Blocks]}
		nn.journalAdd(journalRecord{op: opNewFile, file: f.ID, name: s.Name, created: now})
		for j := range s.Blocks {
			b := &blocks[k]
			*b = Block{ID: BlockID(len(nn.blocks)), File: f.ID, Index: j, Size: blockSize}
			nn.blocks = append(nn.blocks, b)
			nn.locations = append(nn.locations, holders[ends[k]:ends[k]:ends[k+1]])
			f.Blocks = append(f.Blocks, b.ID)
			nn.journalAdd(journalRecord{op: opNewBlock, file: f.ID, block: b.ID, index: j, size: blockSize})
			chosen := placed[ends[k]:ends[k+1]]
			for _, node := range chosen {
				nn.putReplica(b.ID, node, Primary)
				nn.journalAdd(journalRecord{op: opAddReplica, block: b.ID, node: node, kind: Primary})
			}
			for _, node := range chosen {
				nn.publishReplica(event.ReplicaAdd, b.ID, node, false)
			}
			k++
		}
		nn.files = append(nn.files, f)
		nn.journalMaybeCheckpoint()
		out[i] = f
	}
	return out, nil
}

// cutNodeLists replaces every node's list, which must be empty, with an
// empty one with room for exactly counts[node] blocks, all cut from one
// slab of size blocks and at least their sum. Every cut is a full slice
// expression, so a list that outgrows its cut reallocates instead of
// writing into a neighbour's slots.
func (nn *NameNode) cutNodeLists(counts []int, blocks int) {
	slab := make([]BlockID, blocks)
	for node, c := range counts {
		nn.perNode[node], slab = slab[:0:c], slab[c:]
	}
}

// choosePrimaries implements the HDFS default placement: first replica on
// a random node, second on a node in a different rack when one exists,
// third in the same rack as the second; any further replicas go to random
// distinct nodes. Fewer nodes than replicas degrades gracefully. The
// result is valid until the next call.
func (nn *NameNode) choosePrimaries() []topology.NodeID {
	n := nn.topo.N()
	want := nn.replication
	if want > n {
		want = n
	}
	chosen := nn.placed[:0]
	// Downed nodes and nodes already chosen never receive a replica.
	usable := func(cand topology.NodeID) bool {
		return !nn.failed[cand] && !slices.Contains(chosen, cand)
	}
	// pick draws 8 random probes for a usable node satisfying ok, then a
	// start for a cyclic scan, which keeps placement O(n) worst-case while
	// staying random in the common case. With anchor >= 0 (ok must then
	// accept exactly anchor's rack) the scan walks only that rack's
	// members, ascending, from the first at or after start: the order the
	// cluster-wide scan meets them in, so the same draws pick the same
	// node.
	pick := func(ok func(topology.NodeID) bool, anchor topology.NodeID) (topology.NodeID, bool) {
		for t := 0; t < 8; t++ {
			if cand := topology.NodeID(nn.rng.Intn(n)); usable(cand) && (ok == nil || ok(cand)) {
				return cand, true
			}
		}
		start := topology.NodeID(nn.rng.Intn(n))
		if anchor >= 0 {
			members := nn.topo.RackMembers(nn.topo.Rack(anchor))
			from, _ := slices.BinarySearch(members, start)
			for i := range members {
				if cand := members[(from+i)%len(members)]; usable(cand) {
					return cand, true
				}
			}
			return 0, false
		}
		for i := 0; i < n; i++ {
			if cand := (start + topology.NodeID(i)) % topology.NodeID(n); usable(cand) && (ok == nil || ok(cand)) {
				return cand, true
			}
		}
		return 0, false
	}

	first, ok := pick(nil, -1)
	if !ok {
		return nil
	}
	chosen = append(chosen, first)

	if want >= 2 {
		r0 := nn.topo.Rack(first)
		second, ok := pick(func(c topology.NodeID) bool { return nn.topo.Rack(c) != r0 }, -1)
		if !ok {
			second, ok = pick(nil, -1) // single-rack cluster: any distinct node
		}
		if ok {
			chosen = append(chosen, second)
		}
	}
	if want >= 3 && len(chosen) >= 2 {
		r1 := nn.topo.Rack(chosen[1])
		third, ok := pick(func(c topology.NodeID) bool { return nn.topo.Rack(c) == r1 }, chosen[1])
		if !ok {
			third, ok = pick(nil, -1)
		}
		if ok {
			chosen = append(chosen, third)
		}
	}
	for len(chosen) < want {
		extra, ok := pick(nil, -1)
		if !ok {
			break
		}
		chosen = append(chosen, extra)
	}
	nn.placed = chosen
	return chosen
}

// File returns a file by ID, or nil.
func (nn *NameNode) File(id FileID) *File {
	if id < 0 || int(id) >= len(nn.files) {
		return nil
	}
	return nn.files[id]
}

// Block returns a block by ID, or nil.
func (nn *NameNode) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(nn.blocks) {
		return nil
	}
	return nn.blocks[id]
}

// Blocks reports the number of blocks.
func (nn *NameNode) Blocks() int { return len(nn.blocks) }

// ForEachLocation calls fn for every node currently holding a replica of
// b, in ascending node order, stopping early if fn returns false. fn must
// not mutate b's replica set.
func (nn *NameNode) ForEachLocation(b BlockID, fn func(node topology.NodeID, kind ReplicaKind) bool) {
	for _, r := range nn.locs(b) {
		if !fn(r.node, r.kind) {
			return
		}
	}
}

// HasReplica reports whether node holds any replica of b.
func (nn *NameNode) HasReplica(b BlockID, node topology.NodeID) bool {
	return nn.holder(b, node) != nil
}

// ReplicaKindAt reports the kind of replica node holds for b.
func (nn *NameNode) ReplicaKindAt(b BlockID, node topology.NodeID) (ReplicaKind, bool) {
	if r := nn.holder(b, node); r != nil {
		return r.kind, true
	}
	return 0, false
}

// NumReplicas reports how many replicas b currently has.
func (nn *NameNode) NumReplicas(b BlockID) int { return len(nn.locs(b)) }

// AddDynamicReplica registers a DARE-created replica of b at node. Adding
// where any replica already exists is an error — callers must check
// HasReplica first (DARE only replicates after a *remote* read, so a local
// copy cannot exist).
func (nn *NameNode) AddDynamicReplica(b BlockID, node topology.NodeID) error {
	if nn.Block(b) == nil {
		return fmt.Errorf("dfs: unknown block %d", b)
	}
	if int(node) < 0 || int(node) >= nn.topo.N() {
		return fmt.Errorf("dfs: invalid node %d", node)
	}
	if nn.down {
		return fmt.Errorf("dfs: add replica of block %d: %w", b, ErrMasterDown)
	}
	if nn.failed[node] {
		return fmt.Errorf("dfs: node %d: %w", node, ErrNodeDown)
	}
	if !nn.putReplica(b, node, Dynamic) {
		return fmt.Errorf("dfs: node %d already holds a replica of block %d", node, b)
	}
	nn.journalAdd(journalRecord{op: opAddReplica, block: b, node: node, kind: Dynamic})
	nn.publishReplica(event.ReplicaAdd, b, node, true)
	nn.journalMaybeCheckpoint()
	return nil
}

// RemoveDynamicReplica evicts a dynamic replica. Removing a primary
// replica is an error: DARE never touches the static replication factor.
func (nn *NameNode) RemoveDynamicReplica(b BlockID, node topology.NodeID) error {
	k, ok := nn.ReplicaKindAt(b, node)
	if !ok {
		return fmt.Errorf("dfs: node %d holds no replica of block %d", node, b)
	}
	if k != Dynamic {
		return fmt.Errorf("dfs: refusing to remove primary replica of block %d at node %d", b, node)
	}
	if nn.down {
		return fmt.Errorf("dfs: evict replica of block %d: %w", b, ErrMasterDown)
	}
	nn.dropReplica(b, node)
	nn.journalAdd(journalRecord{op: opRemoveReplica, block: b, node: node})
	nn.publishReplica(event.ReplicaRemove, b, node, true)
	nn.journalMaybeCheckpoint()
	return nil
}

// putReplica is the one way a replica enters the registry: it records
// that node holds a kind replica of b in b's holder list, node's block
// list and node's byte account. It changes nothing and reports false when
// b is unknown or node already holds a replica of it.
func (nn *NameNode) putReplica(b BlockID, node topology.NodeID, kind ReplicaKind) bool {
	blk := nn.Block(b)
	if blk == nil {
		return false
	}
	locs := nn.locations[b]
	i, dup := search(locs, node)
	if dup {
		return false
	}
	if locs == nil {
		locs = make([]replica, 0, nn.replication)
	}
	nn.locations[b] = slices.Insert(locs, i, replica{node: node, kind: kind})
	ids := nn.perNode[node]
	j, _ := slices.BinarySearch(ids, b)
	nn.perNode[node] = slices.Insert(ids, j, b)
	if kind == Primary {
		nn.primaryBytes[node] += blk.Size
	} else {
		nn.dynamicBytes[node] += blk.Size
	}
	return true
}

// dropReplica is the one way a replica leaves the registry: it undoes
// putReplica, corruption mark included, so marks never outlive the
// replicas they describe. It reports the removed kind, or false when node
// holds no replica of b.
func (nn *NameNode) dropReplica(b BlockID, node topology.NodeID) (ReplicaKind, bool) {
	locs := nn.locs(b)
	i, ok := search(locs, node)
	if !ok {
		return 0, false
	}
	kind := locs[i].kind
	if locs[i].corrupt {
		nn.corrupt--
	}
	nn.locations[b] = slices.Delete(locs, i, i+1)
	ids := nn.perNode[node]
	j, _ := slices.BinarySearch(ids, b)
	if j == 0 {
		// Draining a list front to back (FailNode, a report-mode Recover)
		// then costs no shifting.
		nn.perNode[node] = ids[1:]
	} else {
		nn.perNode[node] = slices.Delete(ids, j, j+1)
	}
	if kind == Primary {
		nn.primaryBytes[node] -= nn.blocks[b].Size
	} else {
		nn.dynamicBytes[node] -= nn.blocks[b].Size
	}
	return kind, true
}

// setCorrupt marks node's replica of b corrupt; it reports false, marking
// nothing, when node holds no replica of b.
func (nn *NameNode) setCorrupt(b BlockID, node topology.NodeID) bool {
	r := nn.holder(b, node)
	if r == nil {
		return false
	}
	if !r.corrupt {
		r.corrupt = true
		nn.corrupt++
	}
	return true
}

// ForEachNodeBlock calls fn for every block stored on node (any kind), in
// ascending block ID order, without copying the node's block list. fn
// must not change node's replica set.
func (nn *NameNode) ForEachNodeBlock(node topology.NodeID, fn func(b BlockID)) {
	for _, b := range nn.perNode[node] {
		fn(b)
	}
}

// DynamicBytesOn reports bytes of dynamic replicas on node.
func (nn *NameNode) DynamicBytesOn(node topology.NodeID) int64 { return nn.dynamicBytes[node] }

// TotalPrimaryBytes reports pinned bytes across the cluster; the
// replication budget is defined relative to this.
func (nn *NameNode) TotalPrimaryBytes() int64 {
	var total int64
	for _, b := range nn.primaryBytes {
		total += b
	}
	return total
}

// TotalDynamicBytes reports DARE-created bytes across the cluster.
func (nn *NameNode) TotalDynamicBytes() int64 {
	var total int64
	for _, b := range nn.dynamicBytes {
		total += b
	}
	return total
}

// CheckInvariants validates internal consistency; tests call it after
// simulations and the churn harness calls it after every failure/recovery
// event. It verifies that every block keeps at least min(replication, N)
// primary replicas, that holder lists are strictly node-sorted and
// per-node lists strictly ascending, that the two views mirror each
// other, that byte accounting and the corruption counter match the
// holder lists, and that no replica lives on a down node.
func (nn *NameNode) CheckInvariants() error {
	n := nn.topo.N()
	minRepl := min(nn.replication, n)
	// Once any node has ever failed, blocks may legitimately be
	// under-replicated (or lost) — even after every node recovers, since
	// rejoin is empty; accounting is still verified.
	if nn.churned {
		minRepl = 0
	}
	if len(nn.locations) != len(nn.blocks) {
		return fmt.Errorf("dfs: %d holder lists for %d blocks", len(nn.locations), len(nn.blocks))
	}
	// Per-node lists first: the holder checks below binary-search them.
	for node, ids := range nn.perNode {
		if nn.failed[topology.NodeID(node)] && len(ids) != 0 {
			return fmt.Errorf("dfs: down node %d still lists %d blocks", node, len(ids))
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return fmt.Errorf("dfs: node %d's block list is not strictly ascending at block %d", node, ids[i])
			}
		}
	}
	primBytes := make([]int64, n)
	dynBytes := make([]int64, n)
	corrupt := 0
	for id, locs := range nn.locations {
		b := BlockID(id)
		blk := nn.blocks[id]
		if blk == nil || blk.ID != b {
			return fmt.Errorf("dfs: block slot %d holds the wrong block", id)
		}
		primaries := 0
		for i, r := range locs {
			if i > 0 && r.node <= locs[i-1].node {
				return fmt.Errorf("dfs: block %d's holders are not strictly node-sorted at node %d", b, r.node)
			}
			if r.node < 0 || int(r.node) >= n {
				return fmt.Errorf("dfs: block %d lists node %d outside the cluster", b, r.node)
			}
			if nn.failed[r.node] {
				return fmt.Errorf("dfs: block %d has a replica on down node %d", b, r.node)
			}
			if _, ok := slices.BinarySearch(nn.perNode[r.node], b); !ok {
				return fmt.Errorf("dfs: per-node view disagrees for block %d node %d", b, r.node)
			}
			if r.kind == Primary {
				primaries++
				primBytes[r.node] += blk.Size
			} else {
				dynBytes[r.node] += blk.Size
			}
			if r.corrupt {
				corrupt++
			}
		}
		if primaries < minRepl {
			return fmt.Errorf("dfs: block %d has %d primary replicas, want >= %d", b, primaries, minRepl)
		}
	}
	// A mark leaves with its replica (dropReplica), so drift means some
	// path changed a mark or a replica without the counter.
	if corrupt != nn.corrupt {
		return fmt.Errorf("dfs: corruption counter says %d marks, holder lists carry %d", nn.corrupt, corrupt)
	}
	for node, ids := range nn.perNode {
		for _, b := range ids {
			if nn.holder(b, topology.NodeID(node)) == nil {
				return fmt.Errorf("dfs: orphan per-node entry for block %d node %d", b, node)
			}
		}
		if primBytes[node] != nn.primaryBytes[node] {
			return fmt.Errorf("dfs: primary byte accounting off on node %d: %d vs %d", node, primBytes[node], nn.primaryBytes[node])
		}
		if dynBytes[node] != nn.dynamicBytes[node] {
			return fmt.Errorf("dfs: dynamic byte accounting off on node %d: %d vs %d", node, dynBytes[node], nn.dynamicBytes[node])
		}
	}
	return nil
}
