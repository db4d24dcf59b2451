package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dare/internal/event"
	"dare/internal/stats"
	"dare/internal/topology"
)

// modelReplica is one replica in the map model.
type modelReplica struct {
	kind    ReplicaKind
	corrupt bool
}

// mapModel is the registry with the semantics of the map-of-maps layout
// the dense one replaced. It learns every location change from the name
// node's bus events, and corruption from the test, which injects it; it
// never reads the registry it is compared against.
type mapModel struct {
	n, replication int
	sizes          map[BlockID]int64
	locs           map[BlockID]map[topology.NodeID]modelReplica
	failed         map[topology.NodeID]bool
	// disk is each node's crash-time set of corrupt replicas, which a
	// block report re-applies; added collects the replicas added since
	// the test last reset it.
	disk  map[topology.NodeID]map[BlockID]bool
	added []modelRef
}

// modelRef names one replica: a block and its holder.
type modelRef struct {
	b    BlockID
	node topology.NodeID
}

func newMapModel(n, replication int) *mapModel {
	return &mapModel{
		n: n, replication: replication,
		sizes:  map[BlockID]int64{},
		locs:   map[BlockID]map[topology.NodeID]modelReplica{},
		failed: map[topology.NodeID]bool{},
	}
}

func (m *mapModel) HandleEvent(ev event.Event) {
	b, node := BlockID(ev.Block), topology.NodeID(ev.Node)
	switch ev.Kind {
	case event.ReplicaAdd, event.ReplicaRepair:
		kind := Primary
		if ev.Flag {
			kind = Dynamic
		}
		m.sizes[b] = ev.Aux
		if m.locs[b] == nil {
			m.locs[b] = map[topology.NodeID]modelReplica{}
		}
		m.locs[b][node] = modelReplica{kind: kind}
		m.added = append(m.added, modelRef{b, node})
	case event.ReplicaRemove:
		delete(m.locs[b], node)
	case event.NodeFail:
		m.failed[node] = true
	case event.NodeRecover:
		delete(m.failed, node)
	}
}

// mark records that node's replica of b went corrupt, on the crash-time
// disk capture too while one exists.
func (m *mapModel) mark(b BlockID, node topology.NodeID) {
	r := m.locs[b][node]
	r.corrupt = true
	m.locs[b][node] = r
	if m.disk != nil && m.disk[node] != nil {
		if _, ok := m.disk[node][b]; ok {
			m.disk[node][b] = true
		}
	}
}

// crash captures every node's disk, as the crashed master's data nodes
// keep it.
func (m *mapModel) crash() {
	m.disk = map[topology.NodeID]map[BlockID]bool{}
	for b, locs := range m.locs {
		for node, r := range locs {
			if m.disk[node] == nil {
				m.disk[node] = map[BlockID]bool{}
			}
			m.disk[node][b] = r.corrupt
		}
	}
}

// reported re-applies the disk's corruption to the replicas node's block
// report just restored (the ones added since the test reset added).
func (m *mapModel) reported(node topology.NodeID) {
	for _, a := range m.added {
		if a.node == node && m.disk[node][a.b] {
			m.mark(a.b, a.node)
		}
	}
}

func (m *mapModel) nodes(b BlockID) []topology.NodeID {
	out := []topology.NodeID{}
	for node := range m.locs[b] {
		out = append(out, node)
	}
	slices.Sort(out)
	return out
}

func (m *mapModel) nodeBlocks(node topology.NodeID) []BlockID {
	out := []BlockID{}
	for b, locs := range m.locs {
		if _, ok := locs[node]; ok {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapModel) underReplicated() []BlockID {
	want := min(m.replication, m.n-len(m.failed))
	var out []BlockID
	for b, locs := range m.locs {
		primaries := 0
		for _, r := range locs {
			if r.kind == Primary {
				primaries++
			}
		}
		if len(locs) > 0 && primaries < want {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return out
}

// compareToModel checks every registry read against the model.
func compareToModel(t *testing.T, nn *NameNode, m *mapModel, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	if nn.Blocks() != len(m.sizes) {
		fail("%d blocks, model %d", nn.Blocks(), len(m.sizes))
	}
	corrupt, available := 0, 0
	prim := make([]int64, m.n)
	dyn := make([]int64, m.n)
	for b := range BlockID(nn.Blocks()) {
		want := m.nodes(b)
		if got := nn.Locations(b); !slices.Equal(got, want) {
			fail("block %d: Locations %v, model %v", b, got, want)
		}
		if got := nn.NumReplicas(b); got != len(want) {
			fail("block %d: NumReplicas %d, model %d", b, got, len(want))
		}
		var visited []topology.NodeID
		nn.ForEachLocation(b, func(node topology.NodeID, kind ReplicaKind) bool {
			if kind != m.locs[b][node].kind {
				fail("block %d node %d: ForEachLocation kind %v, model %v", b, node, kind, m.locs[b][node].kind)
			}
			visited = append(visited, node)
			return true
		})
		if !slices.Equal(visited, want) {
			fail("block %d: ForEachLocation visits %v, model %v in node order", b, visited, want)
		}
		if len(want) > 0 {
			available++
		}
		for node := range topology.NodeID(m.n) {
			r, held := m.locs[b][node]
			if got := nn.HasReplica(b, node); got != held {
				fail("block %d node %d: HasReplica %v, model %v", b, node, got, held)
			}
			if kind, ok := nn.ReplicaKindAt(b, node); ok != held || kind != r.kind {
				fail("block %d node %d: ReplicaKindAt %v %v, model %v %v", b, node, kind, ok, r.kind, held)
			}
			if got := nn.IsCorrupt(b, node); got != r.corrupt {
				fail("block %d node %d: IsCorrupt %v, model %v", b, node, got, r.corrupt)
			}
			if !held {
				continue
			}
			if r.corrupt {
				corrupt++
			}
			if r.kind == Primary {
				prim[node] += m.sizes[b]
			} else {
				dyn[node] += m.sizes[b]
			}
		}
	}
	var primTotal, dynTotal int64
	for node := range topology.NodeID(m.n) {
		if got, want := nn.NodeBlocks(node), m.nodeBlocks(node); !slices.Equal(got, want) {
			fail("node %d: NodeBlocks %v, model %v", node, got, want)
		}
		if got := nn.NodeFailed(node); got != m.failed[node] {
			fail("node %d: NodeFailed %v, model %v", node, got, m.failed[node])
		}
		if got := nn.PrimaryBytesOn(node); got != prim[node] {
			fail("node %d: PrimaryBytesOn %d, model %d", node, got, prim[node])
		}
		if got := nn.DynamicBytesOn(node); got != dyn[node] {
			fail("node %d: DynamicBytesOn %d, model %d", node, got, dyn[node])
		}
		primTotal += prim[node]
		dynTotal += dyn[node]
	}
	if nn.TotalPrimaryBytes() != primTotal || nn.TotalDynamicBytes() != dynTotal {
		fail("total bytes %d/%d, model %d/%d", nn.TotalPrimaryBytes(), nn.TotalDynamicBytes(), primTotal, dynTotal)
	}
	if got := nn.CorruptReplicas(); got != corrupt {
		fail("CorruptReplicas %d, model %d", got, corrupt)
	}
	if got, want := nn.UnderReplicated(), m.underReplicated(); !slices.Equal(got, want) {
		fail("UnderReplicated %v, model %v", got, want)
	}
	if a, total := nn.Availability(); a != available || total != len(m.sizes) {
		fail("Availability %d/%d, model %d/%d", a, total, available, len(m.sizes))
	}
	if nn.Block(-1) != nil || nn.Block(BlockID(nn.Blocks())) != nil || nn.NumReplicas(BlockID(nn.Blocks())) != 0 {
		fail("reads past the registry's ends found a block")
	}
	if err := nn.CheckInvariants(); err != nil {
		fail("%v", err)
	}
}

// The dense registry must answer every read exactly as the map-of-maps
// layout did, through driveOps mixes, balancer moves, repairs, flapping
// re-registrations, and master crashes recovered in both modes (report
// mode interleaving block reports with further ops), from an empty
// registry, a genesis-built one and a decoded one.
func TestRegistryMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		const nodes, replication = 12, 3
		registries := watchedRegistries(t, nodes, replication, seed)
		for _, start := range []string{"empty", "genesis", "decoded"} {
			t.Run(fmt.Sprintf("%s/seed=%d", start, seed), func(t *testing.T) {
				driveAgainstModel(t, registries[start].nn, registries[start].m, nodes, seed)
			})
		}
	}
}

// driveAgainstModel runs TestRegistryMatchesMapModel's 500-step mix on
// nn, checking every read against m after each step.
func driveAgainstModel(t *testing.T, nn *NameNode, m *mapModel, nodes int, seed uint64) {
	rng := stats.NewRNG(seed).Split(77)
	bal := NewBalancer(nn)
	crashes := 0
	for step := range 500 {
		switch {
		case step%60 == 59 && !nn.Warming():
			if err := nn.Crash(); err != nil {
				t.Fatal(err)
			}
			m.crash()
			if b := BlockID(rng.Intn(nn.Blocks())); len(m.nodes(b)) > 0 {
				// Corruption is disk truth: it lands while the master is down.
				node := m.nodes(b)[rng.Intn(len(m.nodes(b)))]
				if err := nn.MarkCorrupt(b, node); err != nil {
					t.Fatal(err)
				}
				m.mark(b, node)
			}
			mode := RecoverJournal
			if crashes%2 == 1 {
				mode = RecoverReport
			}
			crashes++
			if err := nn.Recover(mode); err != nil {
				t.Fatal(err)
			}
		case nn.Warming() && rng.Intn(3) == 0:
			node := topology.NodeID(0)
			for !nn.NeedsBlockReport(node) {
				node++
			}
			m.added = m.added[:0]
			if _, err := nn.DeliverBlockReport(node); err != nil {
				t.Fatal(err)
			}
			m.reported(node)
		case nn.Blocks() > 0 && rng.Intn(8) == 0:
			// A balancer move between random holder and live non-holder.
			b := BlockID(rng.Intn(nn.Blocks()))
			holders := m.nodes(b)
			dst := topology.NodeID(rng.Intn(nodes))
			if len(holders) == 0 || m.failed[dst] || slices.Contains(holders, dst) {
				break
			}
			src := holders[rng.Intn(len(holders))]
			carried := m.locs[b][src].corrupt
			if err := bal.move(b, src, dst); err != nil {
				t.Fatal(err)
			}
			if carried {
				m.mark(b, dst)
			}
		case rng.Intn(8) == 0:
			if queue := m.underReplicated(); len(queue) > 0 {
				if node, ok := nn.RepairTarget(queue[0]); ok {
					if err := nn.AddPrimaryReplica(queue[0], node); err != nil {
						t.Fatal(err)
					}
				}
			}
		case rng.Intn(10) == 0:
			// A flap: the node is declared dead, then re-registers with
			// its disk, which lists every replica it held.
			v := topology.NodeID(rng.Intn(nodes))
			if m.failed[v] || len(m.failed) >= nodes-1 {
				break
			}
			var stale []StaleReplica
			for _, b := range m.nodeBlocks(v) {
				stale = append(stale, StaleReplica{Block: b, Kind: m.locs[b][v].kind})
			}
			nn.FailNode(v)
			if _, err := nn.ReRegisterNode(v, stale); err != nil {
				t.Fatal(err)
			}
		default:
			if b, node, ok := driveOp(t, nn, rng, step); ok {
				m.mark(b, node)
			}
		}
		compareToModel(t, nn, m, step)
	}
	if crashes < 4 {
		t.Fatalf("seed %d: only %d crashes", seed, crashes)
	}
}

// invariantsFixture is a healthy registry with shared blocks, a dynamic
// replica and a corruption mark, for hand-corrupting.
func invariantsFixture(t *testing.T) *NameNode {
	t.Helper()
	nn := newTestNN(8, 3, 41)
	f, err := nn.CreateFile("f", 6, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	node := topology.NodeID(0)
	for nn.HasReplica(b, node) {
		node++
	}
	if err := nn.AddDynamicReplica(b, node); err != nil {
		t.Fatal(err)
	}
	if err := nn.MarkCorrupt(b, node); err != nil {
		t.Fatal(err)
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return nn
}

// busiestNode returns a node holding at least two blocks.
func busiestNode(nn *NameNode) topology.NodeID {
	best := topology.NodeID(0)
	for node := range nn.perNode {
		if len(nn.perNode[node]) > len(nn.perNode[best]) {
			best = topology.NodeID(node)
		}
	}
	return best
}

// CheckInvariants must reject each way the dense layout can go wrong.
func TestInvariantsCatchBrokenLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(nn *NameNode)
		want  string
	}{
		{"unsorted holder list", func(nn *NameNode) {
			locs := nn.locations[0]
			locs[0], locs[1] = locs[1], locs[0]
		}, "not strictly node-sorted"},
		{"duplicate holder", func(nn *NameNode) {
			locs := nn.locations[1]
			nn.locations[1] = append(locs[:1:1], locs...)
		}, "not strictly node-sorted"},
		{"unsorted per-node list", func(nn *NameNode) {
			ids := nn.perNode[busiestNode(nn)]
			ids[0], ids[1] = ids[1], ids[0]
		}, "not strictly ascending"},
		{"duplicate per-node entry", func(nn *NameNode) {
			node := busiestNode(nn)
			ids := nn.perNode[node]
			nn.perNode[node] = append(ids[:1:1], ids...)
		}, "not strictly ascending"},
		{"holder missing from its node's list", func(nn *NameNode) {
			node := nn.locations[2][0].node
			nn.perNode[node] = slices.DeleteFunc(nn.perNode[node], func(b BlockID) bool { return b == 2 })
		}, "per-node view disagrees"},
		{"per-node entry without a holder", func(nn *NameNode) {
			node := topology.NodeID(0)
			for nn.HasReplica(3, node) {
				node++
			}
			ids := nn.perNode[node]
			i, _ := slices.BinarySearch(ids, 3)
			nn.perNode[node] = slices.Insert(ids, i, 3)
		}, "orphan per-node entry"},
		{"corruption counter drift", func(nn *NameNode) {
			nn.corrupt++
		}, "corruption counter"},
		{"mark set behind the counter", func(nn *NameNode) {
			nn.locations[4][0].corrupt = true
		}, "corruption counter"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nn := invariantsFixture(t)
			tc.spoil(nn)
			err := nn.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// The read paths the scheduler and the policies hit per task must not
// allocate.
func TestRegistryReadsDoNotAllocate(t *testing.T) {
	nn := invariantsFixture(t)
	b := BlockID(0)
	node := nn.Locations(b)[1]
	var hits int
	visit := func(topology.NodeID, ReplicaKind) bool { hits++; return true }
	for _, r := range []struct {
		name string
		read func()
	}{
		{"HasReplica", func() { _ = nn.HasReplica(b, node) }},
		{"ReplicaKindAt", func() { _, _ = nn.ReplicaKindAt(b, node) }},
		{"NumReplicas", func() { _ = nn.NumReplicas(b) }},
		{"IsCorrupt", func() { _ = nn.IsCorrupt(b, node) }},
		{"Block", func() { _ = nn.Block(b) }},
		{"ForEachLocation", func() { nn.ForEachLocation(b, visit) }},
	} {
		if allocs := testing.AllocsPerRun(100, r.read); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call", r.name, allocs)
		}
	}
	if hits == 0 {
		t.Fatal("ForEachLocation visited nothing")
	}
}
