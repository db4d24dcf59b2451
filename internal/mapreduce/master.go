package mapreduce

import (
	"fmt"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/retry"
	"dare/internal/topology"
)

// Master crash/failover: the control plane (job tracker + name node) can
// die mid-run and come back. While it is down the cluster keeps its
// data-plane physics — nodes crash, disks degrade, replicas rot — but
// nothing that needs the master happens: heartbeats go unanswered, no
// tasks launch, no metadata mutates, and DARE announces/evicts fail fast.
// The crash kills every attempt in flight (Hadoop JobTracker-restart
// semantics: running attempts are presumed lost), so nothing in the job
// tracker's bookkeeping changes while it is down and recovery keeps it
// as it is. On recovery the name node rebuilds its registry from the
// metadata journal (or progressively from block reports; see
// dfs/journal.go), and node deaths/rejoins that happened during the
// outage are applied in order through the normal declaration paths.
//
// All of it is inert by default: without EnableMasterRecovery no journal
// exists, and every hook below is one predictable branch — committed
// goldens stay byte-identical.

// pendingNodeEvent is a node lifecycle transition that happened while the
// master was down and awaits application at recovery, in arrival order.
type pendingNodeEvent struct {
	node    topology.NodeID
	recover bool
}

// MasterEventKind tags MasterEvent samples.
type MasterEventKind string

const (
	// MasterWentDown samples the instant of a crash.
	MasterWentDown MasterEventKind = "crash"
	// MasterCameBack samples the instant of a recovery.
	MasterCameBack MasterEventKind = "recover"
	// MasterGotReport samples one block report landing on a warming master.
	MasterGotReport MasterEventKind = "report"
)

// MasterEvent is one availability sample on the control-plane timeline:
// the access-weighted availability of the master's block view at a crash,
// recovery, or block-report instant. The failover experiment integrates
// these (availability is zero while down) into access-weighted uptime.
type MasterEvent struct {
	Time float64
	Kind MasterEventKind
	// WeightedAvailability is the master's view right after the event —
	// zero knowledge right after a report-mode recovery, climbing with
	// each report.
	WeightedAvailability float64
}

// MasterStats tallies the control-plane outage machinery across one run.
type MasterStats struct {
	// Outages counts crashes; Downtime sums crash→recover spans.
	Outages  int
	Downtime float64
	// DeferredHeartbeats counts heartbeats that went unanswered during
	// outages; DeferredReads counts map reads killed by crashes plus
	// corrupt-read quarantines that had to wait for the master.
	DeferredHeartbeats int64
	DeferredReads      int64
	// KilledMaps and KilledReduces count in-flight attempts lost to
	// crashes (and requeued through the attempt-limit machinery).
	KilledMaps, KilledReduces int
	// BlockReports counts per-node reports delivered to warming masters;
	// WarmupTime sums recover→fully-warm spans (report mode only).
	BlockReports int
	WarmupTime   float64
	// JournalCheckpoints and JournalRecords snapshot the metadata journal
	// at read time.
	JournalCheckpoints int
	JournalRecords     int
}

// masterState bundles the tracker's control-plane failover machinery.
type masterState struct {
	enabled bool
	down    bool
	mode    dfs.RecoveryMode
	// pending queues node deaths/rejoins declared while down, in arrival
	// order; unobserved marks nodes whose tracker state diverged from the
	// master's frozen view (invariant check 2 relaxes for them).
	pending    []pendingNodeEvent
	unobserved map[topology.NodeID]bool
	downSince  float64
	recoverAt  float64
	// Per-outage counters, published on MasterRecover and folded into
	// stats.
	outageHeartbeats int64
	outageReads      int64
	stats            MasterStats
	events           []MasterEvent
	err              error
}

// EnableMasterRecovery arms the control-plane failover machinery: the
// name node starts journaling metadata (with a checkpoint every
// checkpointEvery records; <= 0 checkpoints only at recovery). Call
// before Run and before any ScheduleMasterOutage.
func (t *Tracker) EnableMasterRecovery(checkpointEvery int) {
	if t.master.enabled {
		return
	}
	t.master.enabled = true
	t.master.unobserved = make(map[topology.NodeID]bool)
	t.c.NN.EnableJournal(checkpointEvery)
}

// ScheduleMasterOutage registers the master to crash at simulated time
// `at` and recover downFor seconds later, rebuilding in the given mode.
// Call after EnableMasterRecovery and before Run.
func (t *Tracker) ScheduleMasterOutage(at, downFor float64, mode dfs.RecoveryMode) {
	// The crash and its recovery are registered together, so they stay
	// adjacent in firing order.
	t.plan(injectOutage, at, masterCrash{down: downFor, mode: mode})
	t.plan(injectOutage, at+downFor, masterRecovery{})
}

// MasterStats returns the control-plane outage tallies.
func (t *Tracker) MasterStats() MasterStats {
	s := t.master.stats
	s.JournalCheckpoints = t.c.NN.JournalCheckpoints()
	s.JournalRecords = t.c.NN.JournalRecords()
	return s
}

// MasterEvents returns the control-plane availability samples, in time
// order.
func (t *Tracker) MasterEvents() []MasterEvent { return t.master.events }

// masterRetryDelay is the capped exponential backoff callers wait before
// re-attempting a master operation that failed with ErrMasterDown —
// repair copies and corruption quarantines poll with it until the master
// returns. Same arithmetic core as the gray read path (internal/retry).
func (t *Tracker) masterRetryDelay(attempt int) float64 {
	hb := t.c.Profile.HeartbeatInterval
	return retry.Backoff{Base: hb / 2, Cap: 4 * hb}.Delay(attempt)
}

// masterCrash takes the control plane down, to come back down seconds
// later rebuilding in mode: the name node freezes (Crash), every
// in-flight task attempt dies — the job tracker that knew about them is
// gone, so task trackers discard the work — and their inputs requeue
// through the normal attempt-limit/backoff machinery. Crashing an
// already-down master is a no-op (overlap-safe).
type masterCrash struct {
	down float64
	mode dfs.RecoveryMode
}

func (c masterCrash) check(t *Tracker) error {
	if !t.master.enabled {
		return fmt.Errorf("mapreduce: master outage scheduled without EnableMasterRecovery")
	}
	if !(c.down > 0) {
		return fmt.Errorf("mapreduce: master outage downtime %g must be > 0", c.down)
	}
	return nil
}

func (c masterCrash) fire(t *Tracker) {
	m := &t.master
	if m.down {
		return
	}
	if err := t.c.NN.Crash(); err != nil {
		m.err = fmt.Errorf("mapreduce: master crash: %w", err)
		t.c.Eng.Stop()
		return
	}
	now := t.c.Eng.Now()
	m.down = true
	m.mode = c.mode
	m.downSince = now
	m.outageHeartbeats = 0
	m.outageReads = 0
	m.stats.Outages++

	ev := event.New(event.MasterCrash)
	ev.Aux = int64(t.c.NN.JournalRecords())
	ev.Flag = c.mode == dfs.RecoverReport
	t.bus.Publish(ev)

	// Kill every in-flight attempt, nodes in ID order. Unlike a node death
	// the nodes stay up: their slots free immediately and they idle until
	// heartbeats are answered again.
	for _, node := range t.c.Nodes {
		maps, reduces := t.killAttempts(node, true)
		m.stats.KilledMaps += maps
		m.stats.KilledReduces += reduces
		m.outageReads += int64(maps)
		m.stats.DeferredReads += int64(maps)
	}
	m.events = append(m.events, MasterEvent{
		Time: now, Kind: MasterWentDown,
		WeightedAvailability: t.c.NN.WeightedAvailability(t.blockWeights()),
	})
}

// masterRecovery brings the control plane back, in strict order: (1) the
// name node rebuilds its registry from checkpoint + journal (or drops to
// a cold view awaiting block reports); (2) node deaths and rejoins
// declared during the outage are applied through the normal paths — a
// node that re-registered cleanly is forgiven by declareUp; (3)
// MasterRecover publishes, firing the invariant checker on the fully
// reconciled state; (4) repair rounds restart (immediately in journal
// mode, at warm completion in report mode). Recovering an up master is a
// no-op.
type masterRecovery struct{}

func (masterRecovery) check(*Tracker) error { return nil }

func (masterRecovery) fire(t *Tracker) {
	m := &t.master
	if !m.down {
		return
	}
	now := t.c.Eng.Now()
	if err := t.c.NN.Recover(m.mode); err != nil {
		m.err = fmt.Errorf("mapreduce: master recovery: %w", err)
		t.c.Eng.Stop()
		return
	}
	m.down = false
	m.recoverAt = now
	m.stats.Downtime += now - m.downSince

	// Apply outage-time node transitions in arrival order. unobserved
	// stays populated until every application lands: mid-application the
	// invariant checker (fired by the NodeFail/NodeRecover publishes) must
	// still tolerate the not-yet-applied nodes. A death is applied even if
	// the node has since rebooted (a later pending rejoin re-registers
	// it): the dead process's replicas must be scrubbed either way — its
	// disk was wiped.
	pending := m.pending
	m.pending = nil
	for _, pe := range pending {
		if pe.recover {
			t.declareUp(pe.node, nil)
		} else if !t.c.NN.NodeFailed(pe.node) {
			t.declareDead(FailureEvent{Node: pe.node, Rack: -1})
		}
	}
	m.unobserved = make(map[topology.NodeID]bool)

	ev := event.New(event.MasterRecover)
	ev.Aux = m.outageHeartbeats
	ev.Block = m.outageReads
	ev.Flag = m.mode == dfs.RecoverReport
	t.bus.Publish(ev)

	m.events = append(m.events, MasterEvent{
		Time: now, Kind: MasterCameBack,
		WeightedAvailability: t.c.NN.WeightedAvailability(t.blockWeights()),
	})

	// Journal mode recovers a complete view: repair whatever the outage
	// left under-replicated right away. A warming report-mode master would
	// see every block as lost — it waits for the last report instead
	// (deliverReport schedules the round).
	if !t.c.NN.Warming() && (len(pending) > 0 || m.mode == dfs.RecoverReport) {
		t.scheduleRepairs()
	}
}

// deliverReport hands one node's block report to a warming master from
// the node's heartbeat, samples the warming availability curve, and —
// when the view is as warm as it will get — restarts repairs.
func (t *Tracker) deliverReport(node *Node) {
	m := &t.master
	if _, err := t.c.NN.DeliverBlockReport(node.ID); err != nil {
		return
	}
	m.stats.BlockReports++
	m.events = append(m.events, MasterEvent{
		Time: t.c.Eng.Now(), Kind: MasterGotReport,
		WeightedAvailability: t.c.NN.WeightedAvailability(t.blockWeights()),
	})
	if !t.c.NN.Warming() {
		m.stats.WarmupTime += t.c.Eng.Now() - m.recoverAt
		t.scheduleRepairs()
	}
}
