package dfs

import (
	"slices"
	"strings"
	"testing"

	"dare/internal/event"
	"dare/internal/topology"
)

// kindLog records every published event kind in order.
type kindLog struct {
	events []event.Event
}

func (l *kindLog) HandleEvent(ev event.Event) { l.events = append(l.events, ev) }

func (l *kindLog) kinds() []event.Kind {
	out := make([]event.Kind, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Kind
	}
	return out
}

func TestMarkCorruptIsLatent(t *testing.T) {
	nn := newTestNN(6, 3, 31)
	log := &kindLog{}
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	f, _ := nn.CreateFile("f", 4, 100, 0)
	b := f.Blocks[0]
	victim := nn.Locations(b)[0]
	published := len(log.events)

	if err := nn.MarkCorrupt(b, victim); err != nil {
		t.Fatal(err)
	}
	if !nn.IsCorrupt(b, victim) {
		t.Fatal("mark not recorded")
	}
	if nn.CorruptReplicas() != 1 {
		t.Fatalf("CorruptReplicas = %d, want 1", nn.CorruptReplicas())
	}
	// Latent: metadata untouched, nothing published, scheduler still sees
	// the replica.
	if len(log.events) != published {
		t.Fatal("silent corruption published an event")
	}
	if !nn.HasReplica(b, victim) {
		t.Fatal("corruption removed the replica from metadata")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Marking a non-existent replica errors.
	other := topology.NodeID(-1)
	for i := 0; i < nn.N(); i++ {
		if !nn.HasReplica(b, topology.NodeID(i)) {
			other = topology.NodeID(i)
			break
		}
	}
	if other >= 0 {
		if err := nn.MarkCorrupt(b, other); err == nil {
			t.Fatal("marking a missing replica should error")
		}
	}
}

func TestQuarantineRemovesAnyKindAndPublishes(t *testing.T) {
	nn := newTestNN(8, 2, 32)
	log := &kindLog{}
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	f, _ := nn.CreateFile("f", 2, 100, 0)

	// Primary quarantine.
	b := f.Blocks[0]
	victim := nn.Locations(b)[0]
	if err := nn.MarkCorrupt(b, victim); err != nil {
		t.Fatal(err)
	}
	before := nn.PrimaryBytesOn(victim)
	mark := len(log.events)
	if err := nn.QuarantineReplica(b, victim); err != nil {
		t.Fatal(err)
	}
	got := log.events[mark:]
	if len(got) != 2 || got[0].Kind != event.ReplicaCorrupt || got[1].Kind != event.ReplicaRemove {
		t.Fatalf("quarantine published %v, want [replica-corrupt replica-remove]", (&kindLog{events: got}).kinds())
	}
	if got[0].Flag {
		t.Error("primary quarantine flagged dynamic")
	}
	if nn.HasReplica(b, victim) || nn.IsCorrupt(b, victim) {
		t.Fatal("quarantine left the replica or its mark behind")
	}
	if nn.PrimaryBytesOn(victim) != before-100 {
		t.Fatal("primary byte accounting not updated")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Dynamic quarantine: eviction here is mandatory, unlike
	// RemoveDynamicReplica's primary refusal.
	b2 := f.Blocks[1]
	var dynNode topology.NodeID = -1
	for i := 0; i < nn.N(); i++ {
		if !nn.HasReplica(b2, topology.NodeID(i)) && !nn.NodeFailed(topology.NodeID(i)) {
			dynNode = topology.NodeID(i)
			break
		}
	}
	if err := nn.AddDynamicReplica(b2, dynNode); err != nil {
		t.Fatal(err)
	}
	if err := nn.MarkCorrupt(b2, dynNode); err != nil {
		t.Fatal(err)
	}
	mark = len(log.events)
	if err := nn.QuarantineReplica(b2, dynNode); err != nil {
		t.Fatal(err)
	}
	if !log.events[mark].Flag {
		t.Error("dynamic quarantine not flagged dynamic")
	}
	if nn.DynamicBytesOn(dynNode) != 0 {
		t.Fatal("dynamic byte accounting not updated")
	}
	// The block is now under-replicated (repl 2, one primary gone earlier
	// restored? b2 untouched: 2 primaries + dyn removed => fine) — just
	// verify global consistency.
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Quarantining a missing replica errors and publishes nothing.
	mark = len(log.events)
	if err := nn.QuarantineReplica(b2, dynNode); err == nil {
		t.Fatal("double quarantine should error")
	}
	if len(log.events) != mark {
		t.Fatal("failed quarantine published events")
	}
}

func TestFailNodeClearsCorruptMarks(t *testing.T) {
	nn := newTestNN(6, 3, 33)
	f, _ := nn.CreateFile("f", 4, 100, 0)
	b := f.Blocks[0]
	victim := nn.Locations(b)[0]
	if err := nn.MarkCorrupt(b, victim); err != nil {
		t.Fatal(err)
	}
	nn.FailNode(victim)
	if nn.IsCorrupt(b, victim) || nn.CorruptReplicas() != 0 {
		t.Fatal("failure did not clear the corruption mark")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionClearsCorruptMark(t *testing.T) {
	nn := newTestNN(6, 2, 34)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	var node topology.NodeID = -1
	for i := 0; i < nn.N(); i++ {
		if !nn.HasReplica(b, topology.NodeID(i)) {
			node = topology.NodeID(i)
			break
		}
	}
	if err := nn.AddDynamicReplica(b, node); err != nil {
		t.Fatal(err)
	}
	if err := nn.MarkCorrupt(b, node); err != nil {
		t.Fatal(err)
	}
	if err := nn.RemoveDynamicReplica(b, node); err != nil {
		t.Fatal(err)
	}
	if nn.CorruptReplicas() != 0 {
		t.Fatal("eviction did not clear the corruption mark")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsCatchDanglingCorruptMark(t *testing.T) {
	nn := newTestNN(6, 2, 35)
	f, _ := nn.CreateFile("f", 1, 100, 0)
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
	// Corrupt (sic) the metadata directly: remove the marked replica
	// behind the corruption counter's back, so the count dangles.
	i, _ := search(nn.locations[b], node)
	nn.locations[b] = slices.Delete(nn.locations[b], i, i+1)
	nn.perNode[node] = slices.DeleteFunc(nn.perNode[node], func(id BlockID) bool { return id == b })
	nn.dynamicBytes[node] -= 100
	if err := nn.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "corruption counter") {
		t.Fatalf("dangling corruption mark not caught: %v", err)
	}
}

func TestReRegisterNodeRestoresStaleReplicas(t *testing.T) {
	nn := newTestNN(6, 2, 36)
	log := &kindLog{}
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	f, _ := nn.CreateFile("f", 6, 100, 0)

	victim := nn.Locations(f.Blocks[0])[0]
	// Give the victim a dynamic replica too, if it lacks one.
	var dynBlock BlockID = -1
	for _, b := range f.Blocks {
		if !nn.HasReplica(b, victim) {
			if err := nn.AddDynamicReplica(b, victim); err != nil {
				t.Fatal(err)
			}
			dynBlock = b
			break
		}
	}
	rep := nn.FailNode(victim)
	if len(rep.LostPrimaries) == 0 || len(rep.LostDynamic) == 0 {
		t.Fatalf("test setup: victim lost %d primaries, %d dynamic; want both > 0",
			len(rep.LostPrimaries), len(rep.LostDynamic))
	}

	// The flap rejoin: the block report still lists everything.
	stale := make([]StaleReplica, 0, len(rep.LostPrimaries)+len(rep.LostDynamic))
	for _, b := range rep.LostPrimaries {
		stale = append(stale, StaleReplica{Block: b, Kind: Primary})
	}
	for _, b := range rep.LostDynamic {
		stale = append(stale, StaleReplica{Block: b, Kind: Dynamic})
	}
	mark := len(log.events)
	restored, err := nn.ReRegisterNode(victim, stale)
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(stale) {
		t.Fatalf("restored %d replicas, want %d", restored, len(stale))
	}
	// Every restored replica publishes ReplicaAdd; NodeRecover fires last
	// with Aux = restored count.
	got := log.events[mark:]
	if len(got) != restored+1 {
		t.Fatalf("published %d events, want %d", len(got), restored+1)
	}
	for _, ev := range got[:restored] {
		if ev.Kind != event.ReplicaAdd {
			t.Fatalf("expected replica-add, got %v", ev.Kind)
		}
	}
	last := got[restored]
	if last.Kind != event.NodeRecover || last.Aux != int64(restored) {
		t.Fatalf("final event %v aux=%d, want node-recover aux=%d", last.Kind, last.Aux, restored)
	}
	if kind, ok := nn.ReplicaKindAt(dynBlock, victim); !ok || kind != Dynamic {
		t.Fatal("dynamic stale replica not restored with its kind")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReRegisterNodeDropsUnknownAndDuplicateReplicas(t *testing.T) {
	nn := newTestNN(6, 2, 37)
	f, _ := nn.CreateFile("f", 2, 100, 0)
	b := f.Blocks[0]
	victim := nn.Locations(b)[0]
	nn.FailNode(victim)
	// While the node was "dead", repair put a copy of b back... on the
	// victim itself? Impossible; but the registry may have re-replicated b
	// elsewhere and a duplicate report entry must still be ignored.
	stale := []StaleReplica{
		{Block: b, Kind: Primary},
		{Block: b, Kind: Primary},            // duplicate entry in the report
		{Block: BlockID(999), Kind: Primary}, // block the registry never knew
	}
	restored, err := nn.ReRegisterNode(victim, stale)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d, want 1 (duplicate and unknown dropped)", restored)
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverNodeIdempotent is the regression test for the satellite
// requirement: recovering a never-failed or already-recovered node is a
// safe no-op — state is untouched and nothing is published, so nothing
// keyed on NodeRecover (blacklist forgiveness, ticker restart) can run
// twice.
func TestRecoverNodeIdempotent(t *testing.T) {
	nn := newTestNN(6, 2, 38)
	log := &kindLog{}
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	nn.CreateFile("f", 4, 100, 0)

	// Never-failed node: error, no event, no state change.
	mark := len(log.events)
	if _, err := nn.ReRegisterNode(3, nil); err == nil {
		t.Fatal("recovering a never-failed node should error")
	}
	if len(log.events) != mark {
		t.Fatal("failed recovery published an event")
	}

	nn.FailNode(3)
	if _, err := nn.ReRegisterNode(3, nil); err != nil {
		t.Fatal(err)
	}
	failedAfter := nn.FailedNodes()
	mark = len(log.events)

	// Already-recovered node: same contract.
	if _, err := nn.ReRegisterNode(3, nil); err == nil {
		t.Fatal("double recovery should error")
	}
	if len(log.events) != mark {
		t.Fatal("double recovery published an event")
	}
	if nn.FailedNodes() != failedAfter {
		t.Fatal("double recovery changed failure state")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancerMoveCarriesCorruption(t *testing.T) {
	nn := newTestNN(6, 1, 39)
	f, _ := nn.CreateFile("f", 1, 100, 0)
	b := f.Blocks[0]
	src := nn.Locations(b)[0]
	if err := nn.MarkCorrupt(b, src); err != nil {
		t.Fatal(err)
	}
	var dst topology.NodeID = -1
	for i := 0; i < nn.N(); i++ {
		if !nn.HasReplica(b, topology.NodeID(i)) {
			dst = topology.NodeID(i)
			break
		}
	}
	bal := NewBalancer(nn)
	if err := bal.move(b, src, dst); err != nil {
		t.Fatal(err)
	}
	if nn.IsCorrupt(b, src) || !nn.IsCorrupt(b, dst) {
		t.Fatal("balancer move did not carry the corruption mark")
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
