package mapreduce

import (
	"cmp"
	"fmt"
	"slices"

	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/topology"
)

// An action is one event the tracker schedules, other than batch
// arrivals, heartbeats and in-flight attempts: a planned injection
// (ScheduleNodeFailure and friends) or a runtime deferral. check
// validates it against the run — a planned injection when Run starts, a
// decoded deferral before it is re-enqueued — and fire performs it.
type action interface {
	check(t *Tracker) error
	fire(t *Tracker)
}

// A deferral is an action that rides the state image as its own tag, so
// DecodeEvent rebuilds it from the payload alone.
type deferral interface {
	sim.EventTag
	action
}

// bind returns the engine callback that fires a.
func (t *Tracker) bind(a action) func() { return func() { a.fire(t) } }

// deferTag schedules d to fire at `at`. It is the package's one tagged
// deferral on the engine: the tag the image stores is the action fired.
func (t *Tracker) deferTag(at float64, d deferral) {
	t.c.Eng.DeferAtTag(at, d, t.bind(d))
}

// after schedules d to fire delay seconds from now.
func (t *Tracker) after(delay float64, d deferral) { t.deferTag(t.c.Eng.Now()+delay, d) }

// checkNode fails unless id names a cluster node; what says where the ID
// came from ("failure scheduled for", "rejoin tag names").
func (t *Tracker) checkNode(id topology.NodeID, what string) error {
	if id < 0 || int(id) >= len(t.c.Nodes) {
		return fmt.Errorf("mapreduce: %s invalid node %d", what, id)
	}
	return nil
}

// Tag kinds 1..63 are reserved for the mapreduce layer (the runner's
// decode dispatch routes them to Tracker.DecodeEvent).
const (
	// TagArrive is a stream-appended job arrival (AppendJobs).
	TagArrive uint16 = 1
	// TagRequeue is a killed map input's backoff requeue.
	TagRequeue uint16 = 2
	// TagRepairScan is a pending under-replication detection round.
	TagRepairScan uint16 = 3
	// TagRepairBlock is one staggered block re-replication copy.
	TagRepairBlock uint16 = 4
	// TagQuarantine is a deferred checksum-failure report.
	TagQuarantine uint16 = 5
	// TagGrayPublish is a gray-read event published at an offset.
	TagGrayPublish uint16 = 6
	// TagReadBegin is a deferred remote-fetch NIC accounting start.
	TagReadBegin uint16 = 7
	// TagReadRelease is a remote-fetch NIC accounting end.
	TagReadRelease uint16 = 8
	// TagRejoin is a flapping node's deferred re-registration.
	TagRejoin uint16 = 9
)

// deferralKinds makes an empty deferral of each tag kind for DecodeEvent
// to walk a payload into.
var deferralKinds = [...]func() deferral{
	TagArrive:      func() deferral { return new(arriveTag) },
	TagRequeue:     func() deferral { return new(requeueTag) },
	TagRepairScan:  func() deferral { return repairScanTag{} },
	TagRepairBlock: func() deferral { return new(repairBlockTag) },
	TagQuarantine:  func() deferral { return new(quarantineTag) },
	TagGrayPublish: func() deferral { return new(grayPublishTag) },
	TagReadBegin:   func() deferral { return new(readBeginTag) },
	TagReadRelease: func() deferral { return new(readReleaseTag) },
	TagRejoin:      func() deferral { return new(rejoinTag) },
}

// DecodeEvent rebuilds one tagged pending event from its payload: the
// returned tag is the decoded deferral (so the next checkpoint encodes
// the event again) and the closure fires it, as at the original site.
func (t *Tracker) DecodeEvent(kind uint16, w *snapshot.Walker) (sim.EventTag, func(), error) {
	if int(kind) >= len(deferralKinds) || deferralKinds[kind] == nil {
		return nil, nil, fmt.Errorf("mapreduce: unknown event tag kind %d", kind)
	}
	d := deferralKinds[kind]()
	d.WalkTag(w)
	if err := cmp.Or(w.Err(), d.check(t)); err != nil {
		return nil, nil, err
	}
	return d, t.bind(d), nil
}

// injectionClass orders planned injections due at the same instant:
// they fire class by class, and in registration order within a class.
type injectionClass uint8

const (
	injectFailure injectionClass = iota
	injectRecovery
	injectRackFailure
	injectDegrade
	injectRestore
	injectCorruption
	injectFlap
	injectOutage
)

// injectionNames names each class in errors.
var injectionNames = [...]string{"failure", "recovery", "rack failure", "degrade", "restore", "corruption", "flap", "master outage"}

// injection is one planned injection: what fires, when, and its class.
type injection struct {
	class injectionClass
	at    float64
	act   action
}

// plan registers an injection. Call before Run.
func (t *Tracker) plan(class injectionClass, at float64, a action) {
	t.injections = append(t.injections, injection{class: class, at: at, act: a})
}

// scheduleInjections checks and defers every planned injection, in
// firing order. Run calls it once, before the heartbeat tickers start;
// the deferrals are genesis events, recreated by rebuilding the run, so
// they carry no tag. A time that is negative or NaN is an error.
func (t *Tracker) scheduleInjections() error {
	slices.SortStableFunc(t.injections, func(a, b injection) int { return cmp.Compare(a.class, b.class) })
	for _, in := range t.injections {
		if !(in.at >= 0) {
			return fmt.Errorf("mapreduce: %s scheduled at invalid time %g", injectionNames[in.class], in.at)
		}
		if err := in.act.check(t); err != nil {
			return err
		}
		t.c.Eng.DeferAt(in.at, t.bind(in.act))
	}
	return nil
}

// plannedFactor reports whether v is a value a planned degrade can leave
// in node's slow (disk=false) or disk (disk=true) factor: 1, or the
// factor of a planned degradation of that node in that dimension.
func (t *Tracker) plannedFactor(node topology.NodeID, v float64, disk bool) bool {
	if v == 1 {
		return true
	}
	for _, in := range t.injections {
		if d, ok := in.act.(nodeDegrade); ok && d.node == node && d.disk == disk && d.factor == v {
			return true
		}
	}
	return false
}
