package main

import (
	"math"
	"os"
	"testing"
	"time"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/runner"
	"dare/internal/workload"
)

// TestMain runs the tests from the root of the checkout, where the
// benchmark itself runs, so configs/ resolves the same way.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// fakeClock is a tracer clock that only moves when told to.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

// funcSub adapts a function to event.Subscriber.
type funcSub func(event.Event)

func (f funcSub) HandleEvent(ev event.Event) { f(ev) }

// TestProbeBracketingNested publishes an event whose bracketed subscriber
// publishes a second one from inside its handler. Each event costs the
// bracketed subscriber 10 units and the wrapped policy subscriber 3, so
// fanout self time must be 20 and handle time 6, however they nest.
func TestProbeBracketingNested(t *testing.T) {
	clk := &fakeClock{}
	tr := newTracer()
	tr.now = clk.now
	bus := event.NewBus(nil)
	probes := &busProbes{t: tr}
	bus.Subscribe(openProbe{probes})
	bus.Subscribe(funcSub(func(ev event.Event) {
		if ev.Kind == event.JobArrive {
			clk.t += 5
			bus.Publish(event.New(event.TaskLaunch))
			clk.t += 5
			return
		}
		clk.t += 10
	}))
	bus.Subscribe(closeProbe{probes})
	bus.Subscribe(timedSub{inner: funcSub(func(event.Event) { clk.t += 3 }), t: tr, l: layerHandle})
	probes.armed = true

	bus.Publish(event.New(event.JobArrive))

	if tr.err != nil {
		t.Fatal(tr.err)
	}
	if got := tr.self[layerFanout]; got != 20 {
		t.Errorf("fanout self time %v, want 20", got)
	}
	if got := tr.self[layerHandle]; got != 6 {
		t.Errorf("handle self time %v, want 6", got)
	}
	if tr.published != 2 {
		t.Errorf("published %d, want 2", tr.published)
	}
	if tr.selfTotal() != tr.root || tr.root != clk.t {
		t.Errorf("self times sum to %v, root spans %v, clock %v; want all equal", tr.selfTotal(), tr.root, clk.t)
	}
}

// TestTracerMismatchedEnd reports a span closed out of order.
func TestTracerMismatchedEnd(t *testing.T) {
	tr := newTracer()
	tr.begin(layerSim)
	tr.end(layerSelect)
	if tr.err == nil {
		t.Fatal("closing the wrong layer was not reported")
	}
}

// smallArms is a cheap cover of what the traced wiring must reproduce:
// every policy kind plus the fault-durable scenario with the bandit config.
func smallArms(t *testing.T) []arm {
	t.Helper()
	in, err := setupFaultDurable(3)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.WL1(3)
	wl.Jobs = wl.Jobs[:120]
	arms := in.arms
	for _, kind := range []core.PolicyKind{core.NonePolicy, core.GreedyLRUPolicy, core.ElephantTrapPolicy, core.ScarlettPolicy} {
		arms = append(arms, arm{label: kind.String(), opts: runner.Options{
			Profile: config.CCT(), Workload: wl, Scheduler: "fair", Policy: runner.PolicyFor(kind), Seed: 3,
		}})
	}
	return arms
}

// TestTracedRunMatchesRunner checks that the traced wiring reproduces
// runner.Run byte for byte and that its spans plus unattributed_s add up
// to the traced CPU.
func TestTracedRunMatchesRunner(t *testing.T) {
	for _, a := range smallArms(t) {
		want, err := runner.Run(a.opts)
		if err != nil {
			t.Fatalf("%s: %v", a.label, err)
		}
		wantDigest, err := outputDigest(want)
		if err != nil {
			t.Fatal(err)
		}
		it := traceIter{t: newTracer()}
		r := startRegion()
		got, err := tracedRun(a.opts, it.t)
		it.traced = r.stop()
		it.untraced = it.traced
		var g gate
		if !g.checkOutput(a.label, got, err, wantDigest) {
			t.Fatalf("%s: traced run differs from runner.Run", a.label)
		}
		if len(it.t.stack) != 0 || it.t.selfTotal() != it.t.root {
			t.Fatalf("%s: %d spans left open, self %v, root %v", a.label, len(it.t.stack), it.t.selfTotal(), it.t.root)
		}
		it.counts.add(got)
		m := layerMetrics(it)
		sum := m["unattributed_s"].Value
		for _, name := range layerNames {
			sum += m[name].Value
		}
		if cpu := m["trace.cpu_s"].Value; math.Abs(sum-cpu) > 1e-9 {
			t.Errorf("%s: spans + unattributed_s = %v, traced cpu_s = %v", a.label, sum, cpu)
		}
		if m["sim.self_s"].Value <= 0 || m["scheduler.select_s"].Value <= 0 {
			t.Errorf("%s: engine or scheduler span is empty", a.label)
		}
	}
}

// TestGateRejectsPerturbedOutput flips the last bit of one float in an
// Output and expects the digest gate to count a failure.
func TestGateRejectsPerturbedOutput(t *testing.T) {
	wl := workload.WL1(5)
	wl.Jobs = wl.Jobs[:60]
	out, err := runner.Run(runner.Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := outputDigest(out)
	if err != nil {
		t.Fatal(err)
	}
	var g gate
	if !g.checkOutput("unchanged", out, nil, want) {
		t.Fatal("gate rejected the reference output")
	}
	out.Results[len(out.Results)/2].Turnaround = math.Nextafter(out.Results[len(out.Results)/2].Turnaround, math.Inf(1))
	if g.checkOutput("perturbed", out, nil, want) {
		t.Fatal("gate accepted a perturbed output")
	}
	if g.attempted != 2 || g.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", g.attempted, g.failed)
	}
}

// TestCommittedDigests checks every workload has a committed digest.
func TestCommittedDigests(t *testing.T) {
	d, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(d[w.name].Output) != 64 || (w.durable && len(d[w.name].Events) != 64) {
			t.Errorf("%s: committed digests %+v", w.name, d[w.name])
		}
	}
}

// TestTraceSinkSkip hashes only the bytes from the skip offset on, however
// the writes straddle it.
func TestTraceSinkSkip(t *testing.T) {
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	for _, skip := range []int64{0, 5, 7, 36} {
		s := newTraceSink(skip)
		for _, chunk := range [][]byte{data[:3], data[3:8], data[8:20], data[20:]} {
			if n, err := s.Write(chunk); n != len(chunk) || err != nil {
				t.Fatalf("Write returned %d, %v", n, err)
			}
		}
		if got, want := s.sum(), digest(data[skip:]); got != want {
			t.Errorf("skip %d: digest %s, want %s", skip, got, want)
		}
	}
}
