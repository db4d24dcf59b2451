package event

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

type capture struct {
	id   int
	seen *[]struct {
		sub int
		ev  Event
	}
}

func (c capture) HandleEvent(ev Event) {
	*c.seen = append(*c.seen, struct {
		sub int
		ev  Event
	}{c.id, ev})
}

func TestBusDispatchOrderAndStamping(t *testing.T) {
	now := 0.0
	bus := NewBus(func() float64 { return now })
	var seen []struct {
		sub int
		ev  Event
	}
	bus.Subscribe(capture{1, &seen})
	bus.Subscribe(capture{2, &seen})
	bus.Subscribe(capture{3, &seen})

	now = 12.5
	ev := New(TaskLaunch)
	ev.Node = 4
	ev.Time = 999 // must be overwritten by the bus clock
	bus.Publish(ev)

	if len(seen) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(seen))
	}
	for i, d := range seen {
		if d.sub != i+1 {
			t.Errorf("delivery %d went to subscriber %d; want registration order", i, d.sub)
		}
		if d.ev.Time != 12.5 {
			t.Errorf("delivery %d carries time %g, want the bus-stamped 12.5", i, d.ev.Time)
		}
		if d.ev.Node != 4 {
			t.Errorf("delivery %d lost the node field", i)
		}
	}
}

func TestNilBusPublishIsNoOp(t *testing.T) {
	var bus *Bus
	bus.Publish(New(ReplicaAdd)) // must not panic
}

func TestNewEventSentinels(t *testing.T) {
	ev := New(JobArrive)
	if ev.Node != -1 || ev.Rack != -1 || ev.Job != -1 || ev.File != -1 || ev.Block != -1 {
		t.Fatalf("New must set identity fields to -1, got %+v", ev)
	}
	if ev.Aux != 0 || ev.Flag {
		t.Fatalf("New must zero payload fields, got %+v", ev)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "none" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if got := KindFromString(name); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", name, got, k)
		}
	}
	if got := KindFromString("no-such-kind"); got != KindNone {
		t.Errorf("unknown name decoded to %v", got)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	now := 0.0
	bus := NewBus(func() float64 { return now })
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	bus.Subscribe(rec)

	var want []Event
	publish := func(ev Event) {
		bus.Publish(ev)
		ev.Time = now
		want = append(want, ev)
	}

	now = 0
	a := New(ReplicaAdd)
	a.Block, a.Node, a.Rack, a.File, a.Aux = 7, 3, 1, 2, 1<<28
	publish(a)

	now = 1.5
	l := New(TaskLaunch)
	l.Job, l.Block, l.Node, l.Rack, l.Flag = 0, 7, 3, 1, true
	publish(l)

	now = 3.0000001
	f := New(TaskFail)
	f.Job, f.Block, f.Node, f.Aux, f.Flag = 0, 7, 3, 1, true
	publish(f)

	now = 9
	h := New(Heartbeat)
	h.Node, h.Rack, h.Aux = 0, 0, 2
	publish(h)

	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadLogSkipped(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if c := bus.Counts(); c[TaskLaunch] != 1 || c[ReplicaAdd] != 1 || c.Total() != 4 {
		t.Fatalf("counters wrong: %s", c)
	}

	// Wire stability: field order fixed, absent fields omitted.
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	wantLine := `{"t":0,"kind":"replica-add","node":3,"rack":1,"file":2,"block":7,"aux":268435456}`
	if first != wantLine {
		t.Fatalf("wire format drifted:\n got %s\nwant %s", first, wantLine)
	}
}

func TestRecorderIdenticalAcrossRuns(t *testing.T) {
	trace := func() string {
		now := 0.0
		bus := NewBus(func() float64 { return now })
		var buf bytes.Buffer
		rec := NewRecorder(&buf)
		bus.Subscribe(rec)
		for i := 0; i < 100; i++ {
			now = float64(i) * 0.3
			ev := New(Heartbeat)
			ev.Node = int32(i % 7)
			ev.Rack = int32(i % 3)
			ev.Aux = int64(i % 2)
			bus.Publish(ev)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := trace(), trace(); a != b {
		t.Fatal("identical publish sequences produced different traces")
	}
}

func TestCountsString(t *testing.T) {
	var c Counts
	c[TaskLaunch] = 3
	c[ReplicaAdd] = 1
	got := c.String()
	if got != "replica-add=1 task-launch=3" {
		t.Fatalf("Counts.String() = %q", got)
	}
}
