package event

import "testing"

// sink is a minimal subscriber approximating the Counter's cost: one array
// increment per event, no allocation.
type sink struct {
	counts Counts
}

func (s *sink) HandleEvent(ev Event) { s.counts[ev.Kind]++ }

// launchSink is a sink that declares it hears task launches only, as the
// replication policies do.
type launchSink struct{ sink }

func (s *launchSink) Kinds() []Kind { return []Kind{TaskLaunch} }

// BenchmarkBusPublish measures raw dispatch cost at the subscriber counts
// a simulation actually runs with: 0 (bare name node in unit tests), 1,
// and 4 (the tracker's decomposed components), each as subscribers that
// hear every kind and as subscribers that declare the published kind.
// The unheard case publishes a kind that only declared subscribers of
// another kind are wired for: a heartbeat with speculation off. The
// contract is zero allocations per publish in every case.
func BenchmarkBusPublish(b *testing.B) {
	cases := []struct {
		name     string
		subs     int
		declared bool
		kind     Kind
	}{
		{"subs=0", 0, false, TaskLaunch},
		{"subs=1", 1, false, TaskLaunch},
		{"subs=4", 4, false, TaskLaunch},
		{"declared=1", 1, true, TaskLaunch},
		{"declared=4", 4, true, TaskLaunch},
		{"unheard/declared=4", 4, true, Heartbeat},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			now := 0.0
			bus := NewBus(func() float64 { return now })
			sinks := make([]launchSink, c.subs)
			for i := range sinks {
				if c.declared {
					bus.Subscribe(&sinks[i])
				} else {
					bus.Subscribe(&sinks[i].sink)
				}
			}
			ev := New(c.kind)
			ev.Job, ev.Block, ev.Node, ev.Rack = 1, 42, 3, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = float64(i)
				bus.Publish(ev)
			}
		})
	}
}

// TestBusPublishAllocatesNothing pins BenchmarkBusPublish's contract in
// the test suite: no case of it allocates.
func TestBusPublishAllocatesNothing(t *testing.T) {
	bus := NewBus(nil)
	var all sink
	var launches launchSink
	bus.Subscribe(&all)
	bus.Subscribe(&launches)
	for _, k := range []Kind{TaskLaunch, Heartbeat} {
		ev := New(k)
		if n := testing.AllocsPerRun(100, func() { bus.Publish(ev) }); n != 0 {
			t.Errorf("publishing %s allocates %.1f times", k, n)
		}
	}
}
