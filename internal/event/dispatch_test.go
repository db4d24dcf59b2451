package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// broadcastBus is the reference dispatcher the per-kind bus replaces: it
// stamps and hands every event to every subscriber, in registration
// order, and leaves filtering to the subscribers' HandleEvent.
type broadcastBus struct {
	clock  func() float64
	subs   []Subscriber
	counts Counts
}

func (b *broadcastBus) Subscribe(s Subscriber) { b.subs = append(b.subs, s) }

func (b *broadcastBus) Publish(ev Event) {
	b.counts[ev.Kind]++
	ev.Time = b.clock()
	for _, s := range b.subs {
		s.HandleEvent(ev)
	}
}

// delivery is one event a probe reacted to.
type delivery struct {
	sub int
	ev  Event
}

// probe filters on a kind set in HandleEvent, as every production
// subscriber does, logs what it reacts to, and republishes a derived kind
// for some of it, so dispatch nests.
type probe struct {
	id      int
	reacts  [NumKinds]bool
	derive  [NumKinds]Kind // kind to publish on reacting to a kind; KindNone: none
	publish func(Event)
	log     *[]delivery
}

func (p *probe) HandleEvent(ev Event) {
	if !p.reacts[ev.Kind] {
		return
	}
	*p.log = append(*p.log, delivery{p.id, ev})
	if d := p.derive[ev.Kind]; d != KindNone && ev.Aux < 3 {
		nested := New(d)
		nested.Aux = ev.Aux + 1
		nested.Node = int32(p.id)
		p.publish(nested)
	}
}

// declaredProbe is a probe that declares a kind set: exactly the kinds
// it reacts to, or a superset of them.
type declaredProbe struct {
	*probe
	kinds []Kind
}

func (p declaredProbe) Kinds() []Kind { return p.kinds }

// probeSpec is one subscriber of a generated wiring, built identically
// for either bus.
type probeSpec struct {
	reacts  [NumKinds]bool
	derive  [NumKinds]Kind
	declare bool
	extra   []Kind // declared beyond reacts (a superset is allowed)
}

func randomKind(g *rand.Rand) Kind { return Kind(1 + g.Intn(NumKinds-1)) }

func randomSpecs(g *rand.Rand) []probeSpec {
	specs := make([]probeSpec, 1+g.Intn(7))
	for i := range specs {
		s := &specs[i]
		switch g.Intn(4) {
		case 0: // reacts to everything, like a recorder
			for k := 1; k < NumKinds; k++ {
				s.reacts[k] = true
			}
		case 1: // reacts to nothing, like a disabled speculator
		default:
			for n := g.Intn(5); n > 0; n-- {
				s.reacts[randomKind(g)] = true
			}
		}
		for n := g.Intn(3); n > 0; n-- {
			s.derive[randomKind(g)] = randomKind(g)
		}
		s.declare = g.Intn(3) > 0
		for n := g.Intn(2); n > 0; n-- {
			s.extra = append(s.extra, randomKind(g))
		}
	}
	return specs
}

// wire subscribes one probe per spec through subscribe and returns the
// shared delivery log.
func wire(specs []probeSpec, subscribe func(Subscriber), publish func(Event)) *[]delivery {
	log := &[]delivery{}
	for i, s := range specs {
		p := &probe{id: i, reacts: s.reacts, derive: s.derive, publish: publish, log: log}
		if !s.declare {
			subscribe(p)
			continue
		}
		kinds := append([]Kind(nil), s.extra...)
		for k, on := range s.reacts {
			if on {
				kinds = append(kinds, Kind(k))
			}
		}
		subscribe(declaredProbe{p, kinds})
	}
	return log
}

// TestBusMatchesBroadcastReference is the determinism contract of per-kind
// dispatch: for random wirings of declared, undeclared and superset
// subscribers, some of which publish from inside HandleEvent, every
// subscriber must react to the same events in the same order, with the
// same timestamps, as on the broadcast reference, and the bus tally must
// match the reference's.
func TestBusMatchesBroadcastReference(t *testing.T) {
	nested := 0
	for seed := int64(1); seed <= 300; seed++ {
		g := rand.New(rand.NewSource(seed))
		specs := randomSpecs(g)
		now := 0.0
		clock := func() float64 { return now }

		bus := NewBus(clock)
		got := wire(specs, bus.Subscribe, bus.Publish)
		ref := &broadcastBus{clock: clock}
		want := wire(specs, ref.Subscribe, ref.Publish)

		for i := 0; i < 200; i++ {
			now = float64(i) / 4
			ev := New(randomKind(g))
			ev.Block = int64(i)
			bus.Publish(ev)
			ref.Publish(ev)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("seed %d: deliveries diverge from the broadcast reference (%d vs %d)",
				seed, len(*got), len(*want))
		}
		if bus.Counts() != ref.counts {
			t.Fatalf("seed %d: bus tally %s, reference %s", seed, bus.Counts(), ref.counts)
		}
		for _, d := range *got {
			if d.ev.Aux > 0 {
				nested++
			}
		}
	}
	if nested == 0 {
		t.Fatal("no subscriber published from inside HandleEvent")
	}
}

// TestUndeclaredSubscriberHearsEveryKind pins the compatibility half of
// the contract: a subscriber without Kinds receives every kind, in
// registration order with declared subscribers of the same kind, and a
// subscriber declaring no kinds receives nothing.
func TestUndeclaredSubscriberHearsEveryKind(t *testing.T) {
	bus := NewBus(nil)
	var seen []struct {
		sub int
		ev  Event
	}
	all := capture{1, &seen}
	launches := declaredCapture{capture{2, &seen}, []Kind{TaskLaunch, TaskLaunch}}
	deaf := declaredCapture{capture{3, &seen}, nil}
	bus.Subscribe(all)
	bus.Subscribe(launches)
	bus.Subscribe(deaf)
	bus.Subscribe(capture{4, &seen})
	for k := Kind(1); k < numKinds; k++ {
		bus.Publish(New(k))
	}
	var got []string
	for _, d := range seen {
		got = append(got, fmt.Sprintf("%d:%s", d.sub, d.ev.Kind))
	}
	var want []string
	for k := Kind(1); k < numKinds; k++ {
		want = append(want, fmt.Sprintf("1:%s", k))
		if k == TaskLaunch {
			want = append(want, "2:task-launch")
		}
		want = append(want, fmt.Sprintf("4:%s", k))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries\n got %v\nwant %v", got, want)
	}
	if c := bus.Counts(); c.Total() != uint64(NumKinds-1) || c[TaskLaunch] != 1 {
		t.Fatalf("bus tally %s, want one of each kind", c)
	}
}

// declaredCapture is a capture that declares kinds.
type declaredCapture struct {
	capture
	kinds []Kind
}

func (c declaredCapture) Kinds() []Kind { return c.kinds }

// TestBusCountsRestore checks that a restored tally continues counting.
func TestBusCountsRestore(t *testing.T) {
	bus := NewBus(nil)
	var c Counts
	c[Heartbeat] = 41
	bus.RestoreCounts(c)
	bus.Publish(New(Heartbeat))
	if got := bus.Counts()[Heartbeat]; got != 42 {
		t.Fatalf("restored heartbeat tally = %d, want 42", got)
	}
	var nilBus *Bus
	if nilBus.Counts() != (Counts{}) {
		t.Fatal("nil bus reports a non-zero tally")
	}
}

// TestTallyMatchesUnheardPublishes pins Tally and Hears against Publish:
// tallying n events of a kind nobody hears leaves the bus exactly as n
// publishes of it would, and Hears tracks each kind's dispatch list.
func TestTallyMatchesUnheardPublishes(t *testing.T) {
	published, tallied := NewBus(nil), NewBus(nil)
	var heard [2]launchSink
	published.Subscribe(&heard[0])
	tallied.Subscribe(&heard[1])
	for _, k := range []Kind{Heartbeat, TaskLaunch} {
		if got, want := tallied.Hears(k), k == TaskLaunch; got != want {
			t.Errorf("Hears(%s) = %v, want %v", k, got, want)
		}
	}
	for n := 0; n < 5; n++ {
		for i := 0; i < n; i++ {
			published.Publish(New(Heartbeat))
		}
		tallied.Tally(Heartbeat, n)
	}
	if published.Counts() != tallied.Counts() || heard[0] != heard[1] {
		t.Errorf("tally %s (heard %v) differs from publishes %s (heard %v)",
			tallied.Counts(), heard[1].counts, published.Counts(), heard[0].counts)
	}
	var none *Bus
	none.Tally(Heartbeat, 3)
	if none.Hears(Heartbeat) || none.Counts() != (Counts{}) {
		t.Error("a nil bus hears or counts")
	}
}
