package dfs

import (
	"testing"

	"dare/internal/event"
	"dare/internal/topology"
)

// TestSetBusRejectsDoubleInstall pins the migration contract that replaced
// the retired single-slot listener setter: installing a second bus would
// silently detach every subscriber registered on the first, so the name
// node refuses it loudly.
func TestSetBusRejectsDoubleInstall(t *testing.T) {
	nn := newTestNN(8, 3, 1)
	nn.SetBus(event.NewBus(nil))
	defer func() {
		if recover() == nil {
			t.Fatal("second SetBus did not panic")
		}
	}()
	nn.SetBus(event.NewBus(nil))
}

// TestNameNodePublishesReplicaLifecycle checks the dfs layer's event
// vocabulary end to end: placement publishes ReplicaAdd per chosen node,
// dynamic add/remove publish with Flag set, node failure publishes one
// ReplicaRemove per scrubbed replica plus a NodeFail carrying the loss
// count, and recovery publishes NodeRecover.
func TestNameNodePublishesReplicaLifecycle(t *testing.T) {
	nn := newTestNN(8, 3, 2)
	var counter event.Counter
	bus := event.NewBus(nil)
	bus.Subscribe(&counter)
	nn.SetBus(bus)

	f, err := nn.CreateFile("f", 4, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := counter.Counts()
	if got, want := c[event.ReplicaAdd], uint64(4*3); got != want {
		t.Fatalf("ReplicaAdd after placement: %d, want %d", got, want)
	}

	b := f.Blocks[0]
	free := topology.NodeID(-1)
	for n := 0; n < nn.N(); n++ {
		if !nn.HasReplica(b, topology.NodeID(n)) {
			free = topology.NodeID(n)
			break
		}
	}
	if free < 0 {
		t.Fatal("no replica-free node")
	}
	if err := nn.AddDynamicReplica(b, free); err != nil {
		t.Fatal(err)
	}
	if err := nn.RemoveDynamicReplica(b, free); err != nil {
		t.Fatal(err)
	}
	c = counter.Counts()
	if c[event.ReplicaAdd] != 4*3+1 || c[event.ReplicaRemove] != 1 {
		t.Fatalf("dynamic add/remove counts: %s", c)
	}

	victim := nn.Locations(b)[0]
	lost := len(nn.NodeBlocks(victim, 0, BlockID(nn.Blocks())))
	nn.FailNode(victim)
	c = counter.Counts()
	if c[event.NodeFail] != 1 {
		t.Fatalf("NodeFail count: %s", c)
	}
	if got := c[event.ReplicaRemove]; got != uint64(1+lost) {
		t.Fatalf("ReplicaRemove after failure: %d, want %d", got, 1+lost)
	}
	nn.ReRegisterNode(victim, nil)
	if c = counter.Counts(); c[event.NodeRecover] != 1 {
		t.Fatalf("NodeRecover count: %s", c)
	}
}
