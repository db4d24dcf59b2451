package dfs

import (
	"fmt"
	"slices"
	"testing"

	"dare/internal/event"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// populationSpecs is a file population of the given total block count
// spread over a fixed number of files, so block count and file count vary
// independently.
func populationSpecs(blocks int) []FileSpec {
	const files = 4
	specs := make([]FileSpec, files)
	for i := range specs {
		specs[i] = FileSpec{Name: fmt.Sprintf("f%d", i), Blocks: blocks / files}
	}
	specs[0].Blocks += blocks % files
	return specs
}

// eventLog collects every event its bus publishes.
type eventLog []event.Event

func (l *eventLog) HandleEvent(ev event.Event) { *l = append(*l, ev) }

// loggedNN returns a journaled name node whose bus appends to log.
func loggedNN(nodes, repl int, seed uint64, log *eventLog) *NameNode {
	nn := newTestNN(nodes, repl, seed)
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	nn.EnableJournal(7)
	return nn
}

// Creating a population in one call places, journals, checkpoints and
// publishes exactly what creating its files one call at a time does; the
// second build also takes the path where nodes already list blocks.
func TestCreateFilesMatchesOneFileAtATime(t *testing.T) {
	specs := populationSpecs(37)
	var bulkLog, singleLog eventLog
	bulk := loggedNN(12, 3, 5, &bulkLog)
	files, err := bulk.CreateFiles(specs, 64, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	single := loggedNN(12, 3, 5, &singleLog)
	for i, s := range specs {
		f, err := single.CreateFiles([]FileSpec{s}, 64, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		if f[0].ID != files[i].ID || f[0].Name != files[i].Name || !slices.Equal(f[0].Blocks, files[i].Blocks) {
			t.Fatalf("file %d: one at a time %+v, in bulk %+v", i, *f[0], *files[i])
		}
	}
	if got, want := fingerprint(bulk), fingerprint(single); got != want {
		t.Fatalf("registries differ\nbulk:\n%s\none at a time:\n%s", got, want)
	}
	if !slices.Equal(bulkLog, singleLog) {
		t.Fatalf("event sequences differ: %d events in bulk, %d one at a time", len(bulkLog), len(singleLog))
	}
	if bulk.JournalCheckpoints() == 0 || bulk.JournalCheckpoints() != single.JournalCheckpoints() ||
		!slices.Equal(bulk.journal.records, single.journal.records) ||
		!slices.Equal(bulk.journal.snap.Data(), single.journal.snap.Data()) {
		t.Fatalf("journals differ: %d/%d checkpoints, %d/%d records",
			bulk.JournalCheckpoints(), single.JournalCheckpoints(), len(bulk.journal.records), len(single.journal.records))
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// One invalid spec rejects the whole population: nothing is created,
// journaled or drawn.
func TestCreateFilesRejectsWholePopulation(t *testing.T) {
	nn := newTestNN(6, 2, 3)
	nn.EnableJournal(0)
	before := fingerprint(nn)
	if _, err := nn.CreateFiles([]FileSpec{{Name: "ok", Blocks: 3}, {Name: "empty"}}, 64, 0); err == nil {
		t.Fatal("a zero-block file was accepted")
	}
	if got := fingerprint(nn); got != before || nn.JournalRecords() != 0 {
		t.Fatalf("a rejected population changed the registry\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

// watched is a name node and the map model that learns it from its bus.
type watched struct {
	nn *NameNode
	m  *mapModel
}

// watchedRegistries returns journaled name nodes, each watched by a map
// model that learned it from bus events, built three ways: "empty", a
// population created by genesis ("genesis"), and that population's image
// decoded into a fresh name node ("decoded").
func watchedRegistries(t *testing.T, nodes, replication int, seed uint64) map[string]watched {
	t.Helper()
	out := map[string]watched{}
	for _, how := range []string{"empty", "genesis", "decoded"} {
		m := newMapModel(nodes, replication)
		bus := event.NewBus(nil)
		bus.Subscribe(m)
		src := newTestNN(nodes, replication, seed)
		src.SetBus(bus)
		if how != "empty" {
			if _, err := src.CreateFiles(populationSpecs(40), 64, 0); err != nil {
				t.Fatal(err)
			}
		}
		src.EnableJournal(16)
		nn := src
		if how == "decoded" {
			nn = newTestNN(nodes, replication, seed+100)
			nn.SetBus(bus)
			d := snapshot.NewDec(encodeState(t, src))
			if err := nn.WalkState(snapshot.WalkDec(d)); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		out[how] = watched{nn, m}
	}
	return out
}

// Every list a bulk build cuts from a slab ends where its neighbour's
// begins, so growing one past its cut — a dynamic replica on a block, a
// node that gains blocks by dynamic adds or by re-registering with more
// than it lost — reallocates it and leaves every other block's and node's
// list as it was.
func TestSlabCutsDoNotAlias(t *testing.T) {
	const nodes, replication = 10, 3
	registries := watchedRegistries(t, nodes, replication, 9)
	for _, how := range []string{"genesis", "decoded"} {
		t.Run(how, func(t *testing.T) {
			nn, m := registries[how].nn, registries[how].m
			compareToModel(t, nn, m, 0)
			// A block and a node in the middle of their slabs, each with
			// its cut full.
			b := BlockID(nn.Blocks() / 2)
			v := topology.NodeID(nodes / 2)
			if l := nn.locations[b]; len(l) != cap(l) {
				t.Fatalf("block %d's holder list has %d slots for %d holders", b, cap(l), len(l))
			}
			if l := nn.perNode[v]; len(l) == 0 || len(l) != cap(l) {
				t.Fatalf("node %d's list has %d slots for %d blocks", v, cap(l), len(l))
			}
			// Grow block b's holder list past its cut.
			for node := range topology.NodeID(nodes) {
				if !nn.HasReplica(b, node) && node != v {
					if err := nn.AddDynamicReplica(b, node); err != nil {
						t.Fatal(err)
					}
				}
			}
			compareToModel(t, nn, m, 1)
			// Grow node v's list past its cut by dynamic adds.
			added := 0
			for id := range BlockID(nn.Blocks()) {
				if added < 3 && !nn.HasReplica(id, v) {
					if err := nn.AddDynamicReplica(id, v); err != nil {
						t.Fatal(err)
					}
					added++
				}
			}
			compareToModel(t, nn, m, 2)
			// Flap the node after it: it re-registers with what it held
			// plus every block it did not hold.
			w := v + 1
			var stale []StaleReplica
			for id := range BlockID(nn.Blocks()) {
				kind, ok := nn.ReplicaKindAt(id, w)
				if !ok {
					kind = Dynamic
				}
				stale = append(stale, StaleReplica{Block: id, Kind: kind})
			}
			nn.FailNode(w)
			compareToModel(t, nn, m, 3)
			if _, err := nn.ReRegisterNode(w, stale); err != nil {
				t.Fatal(err)
			}
			if got := len(nn.perNode[w]); got != nn.Blocks() {
				t.Fatalf("node %d lists %d blocks after re-registering with all %d", w, got, nn.Blocks())
			}
			compareToModel(t, nn, m, 4)
		})
	}
}

// buildAllocs counts the allocations of rebuilding a registry of the given
// shape from its image (a fresh name node's WalkState decode, journal
// checkpoint check included) and of a journal-mode crash and recovery.
func buildAllocs(t *testing.T, nodes, blocks int) (decode, recoverAllocs float64) {
	t.Helper()
	topo := topology.NewDedicated(nodes, 40, stats.Constant{V: 0})
	nn := NewNameNode(topo, 3, stats.NewRNG(1))
	if _, err := nn.CreateFiles(populationSpecs(blocks), 128, 0); err != nil {
		t.Fatal(err)
	}
	nn.EnableJournal(0)
	img := encodeState(t, nn)
	decode = testing.AllocsPerRun(3, func() {
		fresh := NewNameNode(topo, 3, stats.NewRNG(2))
		if err := fresh.WalkState(snapshot.WalkDec(snapshot.NewDec(img))); err != nil {
			t.Fatal(err)
		}
	})
	recoverAllocs = testing.AllocsPerRun(3, func() {
		if err := nn.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := nn.Recover(RecoverJournal); err != nil {
			t.Fatal(err)
		}
	})
	return decode, recoverAllocs
}

// TestRegistryBuildAllocsIndependentOfSize pins that a block and a node
// cost no allocation when the registry is rebuilt from an image: a state
// decode and a journal-mode crash and recovery allocate the same number
// of times at 1,000 and at 10,000 blocks, and at 1,000 and at 10,000
// nodes. (Genesis is pinned the same way in internal/mapreduce.)
func TestRegistryBuildAllocsIndependentOfSize(t *testing.T) {
	baseDecode, baseRecover := buildAllocs(t, 1000, 1000)
	for _, shape := range [][2]int{{1000, 10000}, {10000, 1000}} {
		decode, rec := buildAllocs(t, shape[0], shape[1])
		if decode != baseDecode {
			t.Errorf("%d nodes, %d blocks: a decode allocates %.0f times, %.0f at 1,000 and 1,000", shape[0], shape[1], decode, baseDecode)
		}
		if rec != baseRecover {
			t.Errorf("%d nodes, %d blocks: crash and recovery allocate %.0f times, %.0f at 1,000 and 1,000", shape[0], shape[1], rec, baseRecover)
		}
	}
}
