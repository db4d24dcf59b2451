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
// On recovery the name node rebuilds its registry from the metadata
// journal (or progressively from block reports; see dfs/journal.go), the
// job tracker reconstructs its job ledger from the journaled event stream
// and requeues every attempt that was in flight at the crash (Hadoop
// JobTracker-restart semantics: running attempts are presumed lost), and
// node deaths/rejoins that happened during the outage are applied in
// order through the normal declaration paths.
//
// All of it is inert by default: without EnableMasterRecovery no journal
// exists, no subscriber is added, and every hook below is one predictable
// branch — committed goldens stay byte-identical.

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
	journal *trackerJournal
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
// checkpointEvery records; <= 0 checkpoints only at recovery) and the
// tracker starts journaling its job ledger as a bus subscriber. Call
// before Run and before any ScheduleMasterOutage.
func (t *Tracker) EnableMasterRecovery(checkpointEvery int) {
	if t.master.enabled {
		return
	}
	t.master.enabled = true
	t.master.unobserved = make(map[topology.NodeID]bool)
	t.master.journal = newTrackerJournal(t)
	t.c.NN.EnableJournal(checkpointEvery)
	subscribe(t.bus, t.master.journal)
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
// a cold view awaiting block reports); (2) the tracker's job ledger is
// rebuilt from the journaled event stream and verified against live
// state, restoring per-node blacklist counters; (3) node deaths and
// rejoins declared during the outage are applied through the normal
// paths — so a node that re-registered cleanly gets its blacklist
// counters forgiven AFTER the journal rebuild, never resurrecting them;
// (4) MasterRecover publishes, firing the invariant checker on the fully
// reconciled state; (5) repair rounds restart (immediately in journal
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

	if err := m.journal.rebuild(t); err != nil {
		m.err = fmt.Errorf("mapreduce: tracker journal rebuild at t=%g: %w", now, err)
		t.c.Eng.Stop()
		return
	}

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

// trackerJournal is the job tracker's journaled ledger: a bus subscriber
// that records what a restarted job tracker could know — job arrivals,
// map completions, job finishes, and per-node attempt blame — exactly as
// Hadoop's JobTracker restart replays its job history log. At recovery
// rebuild() verifies the ledger against the live bookkeeping (they are
// fed by the same event stream, so any mismatch is a journaling bug) and
// restores the per-node blacklist counters from it.
type trackerJournal struct {
	t        *Tracker
	jobs     map[int32]*journalJob
	blame    []int
	finished int
}

type journalJob struct {
	numMaps   int
	completed int
	finished  bool
	failed    bool
}

func newTrackerJournal(t *Tracker) *trackerJournal {
	return &trackerJournal{
		t:     t,
		jobs:  make(map[int32]*journalJob),
		blame: make([]int, len(t.c.Nodes)),
	}
}

// Kinds implements event.KindFilter.
func (tj *trackerJournal) Kinds() []event.Kind {
	return []event.Kind{event.JobArrive, event.TaskComplete, event.JobFinish, event.TaskFail, event.NodeRecover}
}

// HandleEvent implements event.Subscriber.
func (tj *trackerJournal) HandleEvent(ev event.Event) {
	switch ev.Kind {
	case event.JobArrive:
		tj.jobs[ev.Job] = &journalJob{numMaps: int(ev.Aux)}
	case event.TaskComplete:
		// Only map completions carry a block; reduce completions have
		// Block = -1 and do not advance the map ledger.
		if ev.Block >= 0 {
			if r := tj.jobs[ev.Job]; r != nil {
				r.completed++
			}
		}
	case event.JobFinish:
		if r := tj.jobs[ev.Job]; r != nil {
			r.finished = true
			r.failed = ev.Flag
		}
		tj.finished++
	case event.TaskFail:
		// Mirror the live handler's guards exactly (noteNodeTaskFailure):
		// blame only counts while blacklisting is armed and the node is up.
		// Neither side gates on the blacklisted flag, so the two counters
		// stay record-for-record identical whichever subscriber runs first.
		if ev.Flag && ev.Node >= 0 && tj.t.faults.blacklistAfter > 0 && tj.t.c.Nodes[ev.Node].Up {
			tj.blame[ev.Node]++
		}
	case event.NodeRecover:
		// Re-registration forgives blame, in the journal as in the live
		// handler — both hear the same event.
		tj.blame[ev.Node] = 0
	}
}

// rebuild reconstructs the restarted job tracker's state from the ledger:
// it verifies the journaled job counters against the live bookkeeping and
// overwrites the per-node blacklist counters with the journaled blame.
// The overwrite runs BEFORE deferred node rejoins are applied, so a node
// that re-registered cleanly during the outage is forgiven by its rejoin's
// NodeRecover — the journal never resurrects its counters afterwards.
func (tj *trackerJournal) rebuild(t *Tracker) error {
	for _, j := range t.active {
		id := int32(j.Spec.ID)
		r := tj.jobs[id]
		if r == nil {
			return fmt.Errorf("job %d missing from the journal", id)
		}
		if r.finished {
			return fmt.Errorf("job %d journaled finished but still active", id)
		}
		if r.numMaps != j.Spec.NumMaps {
			return fmt.Errorf("job %d journaled %d maps, live %d", id, r.numMaps, j.Spec.NumMaps)
		}
		if r.completed != j.CompletedMaps() {
			return fmt.Errorf("job %d journaled %d completed maps, live %d", id, r.completed, j.CompletedMaps())
		}
	}
	if tj.finished != t.completed {
		return fmt.Errorf("journal lists %d finished jobs, live %d", tj.finished, t.completed)
	}
	for n := range tj.blame {
		if tj.blame[n] != t.faults.nodeTaskFailures[n] {
			return fmt.Errorf("node %d journaled blame %d, live %d", n, tj.blame[n], t.faults.nodeTaskFailures[n])
		}
	}
	copy(t.faults.nodeTaskFailures, tj.blame)
	return nil
}
