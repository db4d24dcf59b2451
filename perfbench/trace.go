package main

import (
	"fmt"
	"time"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/topology"
)

// layer names one span kind of the traced run. Each is timed from the
// outside: around a call into a module's public functions, or by a wrapper
// on a seam the program already exposes as an interface or a hook.
type layer int

const (
	layerMRWire   layer = iota // mapreduce.NewCluster + NewTracker
	layerCoreWire              // core.NewManager / core.NewScarlett
	layerSelect                // mapreduce.TaskSelector calls
	layerHandle                // replication policy's bus subscriber
	layerDeferred              // closures the policy defers on the engine
	layerFanout                // bus dispatch through the tracker's own subscribers
	layerRecord                // event.Recorder (JSONL trace)
	layerSim                   // engine drive passed to Tracker.RunWith
	layerCheck                 // NameNode.CheckInvariants + metrics.PlacementCV
	numLayers
)

var layerNames = [numLayers]string{
	layerMRWire:   "mapreduce.wire_s",
	layerCoreWire: "core.wire_s",
	layerSelect:   "scheduler.select_s",
	layerHandle:   "core.handle_s",
	layerDeferred: "core.deferred_s",
	layerFanout:   "event.fanout_s",
	layerRecord:   "event.record_s",
	layerSim:      "sim.self_s",
	layerCheck:    "dfs.check_s",
}

// frame is one open span: its layer, start instant, and the summed
// duration of the child spans that closed inside it.
type frame struct {
	l     layer
	start time.Duration
	child time.Duration
}

// tracer keeps a stack of open spans on the simulation goroutine and
// accumulates each layer's self time: a span's duration minus the part
// its children cover. The sum of all self times therefore equals the sum
// of the root spans' durations, whatever the nesting.
type tracer struct {
	now   func() time.Duration // monotonic clock
	stack []frame
	self  [numLayers]time.Duration
	root  time.Duration // summed duration of root spans

	published int64 // bus events seen by the opening probe
	offers    int64 // TaskSelector calls
	launches  int64 // TaskSelector calls that picked a task
	err       error // first bracketing violation
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{now: func() time.Duration { return time.Since(epoch) }}
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

// end closes the innermost span, which must be of layer l.
func (t *tracer) end(l layer) {
	n := len(t.stack)
	if n == 0 || t.stack[n-1].l != l {
		if t.err == nil {
			t.err = fmt.Errorf("trace: closing %s with %d spans open", layerNames[l], n)
		}
		return
	}
	f := t.stack[n-1]
	t.stack = t.stack[:n-1]
	d := t.now() - f.start
	t.self[f.l] += d - f.child
	if n > 1 {
		t.stack[n-2].child += d
	} else {
		t.root += d
	}
}

// wrap returns fn timed as a span of layer l.
func (t *tracer) wrap(l layer, fn func()) func() {
	return func() {
		t.begin(l)
		fn()
		t.end(l)
	}
}

// selfTotal sums every layer's self time.
func (t *tracer) selfTotal() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// busProbes brackets a range of bus subscribers: open is subscribed
// before the first of them and close after the last, so each published
// event opens a fanout span that closes once those subscribers are done.
// Events published from inside a subscriber open nested spans, and every
// wrapped subscriber or hook that runs inside the bracket is a child span,
// so the fanout self time is the bus and tracker-internal work alone.
// Probes stay inert until armed, which happens once both are subscribed.
type busProbes struct {
	t     *tracer
	armed bool
}

type openProbe struct{ p *busProbes }
type closeProbe struct{ p *busProbes }

func (o openProbe) HandleEvent(event.Event) {
	if o.p.armed {
		o.p.t.published++
		o.p.t.begin(layerFanout)
	}
}

func (c closeProbe) HandleEvent(event.Event) {
	if c.p.armed {
		c.p.t.end(layerFanout)
	}
}

// timedSub wraps a bus subscriber in a span of its layer.
type timedSub struct {
	inner event.Subscriber
	t     *tracer
	l     layer
}

func (s timedSub) HandleEvent(ev event.Event) {
	s.t.begin(s.l)
	s.inner.HandleEvent(ev)
	s.t.end(s.l)
}

// timedSelector decorates a TaskSelector: every slot offer is a
// scheduler span, counted with whether it launched a task.
type timedSelector struct {
	mapreduce.TaskSelector
	t *tracer
}

func (s timedSelector) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	s.t.begin(layerSelect)
	j, b, ok := s.TaskSelector.SelectMapTask(node, now)
	s.t.end(layerSelect)
	s.t.count(ok)
	return j, b, ok
}

func (s timedSelector) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	s.t.begin(layerSelect)
	j, ok := s.TaskSelector.SelectReduceTask(node, now)
	s.t.end(layerSelect)
	s.t.count(ok)
	return j, ok
}

func (t *tracer) count(launched bool) {
	t.offers++
	if launched {
		t.launches++
	}
}
