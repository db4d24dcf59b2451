package mapreduce

import (
	"testing"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/topology"
)

// DisableIdleGate leaves the idle-heartbeat gate off for the rest of the
// test, so every cohort tick runs the full per-node sweep: the reference
// the gated run must match.
func DisableIdleGate(t testing.TB) {
	prev := installIdleGate
	installIdleGate = func(*Tracker, *sim.CohortTicker) {}
	t.Cleanup(func() { installIdleGate = prev })
}

// CountIdleBeats makes every tracker run for the rest of the test add the
// beats its idle gate skips to the returned counter, so a differential
// can show the gate actually fired.
func CountIdleBeats(t testing.TB) *int {
	n := new(int)
	prev := installIdleGate
	installIdleGate = func(tr *Tracker, ct *sim.CohortTicker) {
		ct.SetIdleGate(countingGate{(*idleGate)(tr), n})
	}
	t.Cleanup(func() { installIdleGate = prev })
	return n
}

// countingGate is the tracker's idle gate, adding what it skips to n.
type countingGate struct {
	*idleGate
	n *int
}

func (g countingGate) Skipped(k int) {
	*g.n += k
	g.idleGate.Skipped(k)
}

// Blacklist marks node id blacklisted through the cluster's one writer,
// as a failure-handler verdict would, keeping the blacklist count the
// idle-heartbeat gate reads in step.
func Blacklist(c *Cluster, id topology.NodeID) { c.setBlacklisted(c.Nodes[id], true) }

// CheckSelectionAgainstScan makes every tracker built for the rest of the
// test check each active job's selection at every replica add, repair and
// removal, task launch and node rejoin: at the event's node,
// TakeLocalBlock and TakeRackLocalBlock must take the block the linear
// reference (take_test.go) picks. Each check puts the taken block back as
// it was, so the run goes on unchanged. It returns the number of checks
// made.
func CheckSelectionAgainstScan(t testing.TB) *int {
	n := new(int)
	prev := subscribe
	subscribe = func(b *event.Bus, s event.Subscriber) {
		prev(b, s)
		if c, ok := s.(*invariantChecker); ok {
			prev(b, &selectionCheck{t: c.t, tb: t, n: n})
		}
	}
	t.Cleanup(func() { subscribe = prev })
	return n
}

// selectionCheck is the bus component CheckSelectionAgainstScan adds
// after a tracker's own.
type selectionCheck struct {
	t  *Tracker
	tb testing.TB
	n  *int
}

func (c *selectionCheck) Kinds() []event.Kind {
	return []event.Kind{event.ReplicaAdd, event.ReplicaRepair, event.ReplicaRemove, event.TaskLaunch, event.NodeRecover}
}

func (c *selectionCheck) HandleEvent(ev event.Event) {
	node := topology.NodeID(ev.Node)
	if node < 0 || int(node) >= len(c.t.c.Nodes) {
		return
	}
	for _, j := range c.t.active {
		check := func(name string, take, ref func(*Job, topology.NodeID) (dfs.BlockID, bool)) {
			want, wantOK := ref(j, node)
			got, ok := take(j, node)
			if ok {
				j.untake(got)
			}
			*c.n++
			if got != want || ok != wantOK {
				c.tb.Errorf("t=%g after %s: job %d %s(%d) = %d, %v; the linear reference takes %d, %v",
					c.t.c.Eng.Now(), ev.Kind, j.ID(), name, node, got, ok, want, wantOK)
			}
		}
		check("TakeLocalBlock", (*Job).TakeLocalBlock, refTakeLocal)
		check("TakeRackLocalBlock", (*Job).TakeRackLocalBlock, refTakeRackLocal)
	}
}

// CheckLedgerAtRecovery makes every tracker built for the rest of the
// test keep a ledger of what a restarted job tracker could replay from
// its history log — job arrivals, map completions, job finishes, blamed
// attempt failures and node re-registrations, heard on the bus — and, at
// every master recovery, compare it with the live bookkeeping: each
// active job's map and completed-map counts, the finished-job count, and
// every node's blame. A node's blame is also compared when it rejoins,
// before both sides forgive it, so a recovery that applies a deferred
// rejoin cannot hide a drift. It returns the number of recoveries
// compared.
func CheckLedgerAtRecovery(t testing.TB) *int {
	n := new(int)
	prev := subscribe
	subscribe = func(b *event.Bus, s event.Subscriber) {
		prev(b, s)
		if c, ok := s.(*invariantChecker); ok {
			prev(b, &ledger{t: c.t, tb: t, n: n, jobs: make(map[int32]*ledgerJob), blame: make([]int, len(c.t.c.Nodes))})
		}
	}
	t.Cleanup(func() { subscribe = prev })
	return n
}

// ledger is the bus component CheckLedgerAtRecovery adds after a
// tracker's own.
type ledger struct {
	t        *Tracker
	tb       testing.TB
	n        *int
	jobs     map[int32]*ledgerJob
	blame    []int
	finished int
}

type ledgerJob struct {
	numMaps, completed int
	finished           bool
}

func (l *ledger) Kinds() []event.Kind {
	return []event.Kind{event.JobArrive, event.TaskComplete, event.JobFinish, event.TaskFail, event.NodeRecover, event.MasterRecover}
}

func (l *ledger) HandleEvent(ev event.Event) {
	switch ev.Kind {
	case event.JobArrive:
		l.jobs[ev.Job] = &ledgerJob{numMaps: int(ev.Aux)}
	case event.TaskComplete:
		// Only map completions carry a block.
		if r := l.jobs[ev.Job]; r != nil && ev.Block >= 0 {
			r.completed++
		}
	case event.JobFinish:
		if r := l.jobs[ev.Job]; r != nil {
			r.finished = true
		}
		l.finished++
	case event.TaskFail:
		// Blame counts only while blacklisting is armed and the node is
		// up, blacklisted or not.
		if ev.Flag && ev.Node >= 0 && l.t.faults.blacklistAfter > 0 && l.t.c.Nodes[ev.Node].Up {
			l.blame[ev.Node]++
		}
	case event.NodeRecover:
		// The tracker forgives the node after this publish: until then
		// both sides still hold the blame they are about to drop.
		if live := l.t.faults.nodeTaskFailures[ev.Node]; l.blame[ev.Node] != live {
			l.tb.Errorf("t=%g: node %d rejoins with blame %d in the ledger, live %d", l.t.c.Eng.Now(), ev.Node, l.blame[ev.Node], live)
		}
		l.blame[ev.Node] = 0
	case event.MasterRecover:
		*l.n++
		l.compare()
	}
}

// compare reports every way the live bookkeeping differs from the ledger.
func (l *ledger) compare() {
	now := l.t.c.Eng.Now()
	for _, j := range l.t.active {
		id := int32(j.Spec.ID)
		switch r := l.jobs[id]; {
		case r == nil:
			l.tb.Errorf("t=%g: active job %d is missing from the ledger", now, id)
		case r.finished:
			l.tb.Errorf("t=%g: job %d finished in the ledger but is still active", now, id)
		case r.numMaps != j.Spec.NumMaps || r.completed != j.CompletedMaps():
			l.tb.Errorf("t=%g: job %d has %d/%d maps done in the ledger, %d/%d live",
				now, id, r.completed, r.numMaps, j.CompletedMaps(), j.Spec.NumMaps)
		}
	}
	if l.finished != l.t.completed {
		l.tb.Errorf("t=%g: the ledger lists %d finished jobs, live %d", now, l.finished, l.t.completed)
	}
	for n, b := range l.blame {
		if live := l.t.faults.nodeTaskFailures[n]; b != live {
			l.tb.Errorf("t=%g: node %d has blame %d in the ledger, live %d", now, n, b, live)
		}
	}
}

// untake undoes a Take of b: it restores b's live seq, that of its latest
// entry in the pending list, and the demand count.
func (j *Job) untake(b dfs.BlockID) {
	for i := len(j.pending) - 1; i >= 0; i-- {
		if j.pending[i].b == b {
			j.pendingSeq[b] = j.pending[i].seq
			break
		}
	}
	if j.registered {
		j.cluster.pendingMapInputs++
	}
}

// ForceHeartbeatCohorts fixes the heartbeat layout for the rest of the
// test: every cohort chunks size same-rack nodes (0 keeps the auto-scaled
// size). With perNode, each node instead ticks alone in a singleton
// cohort on the phase its size-node cohort would have, which is the
// per-node ticker reference the coalesced sweep must match (a singleton
// cohort fires exactly as a per-node ticker does; see the sim package's
// TestCohortMatchesPerNodeTickers).
func ForceHeartbeatCohorts(t testing.TB, size int, perNode bool) {
	prev := heartbeatCohorts
	heartbeatCohorts = func(c *Cluster, interval float64) ([]int, []float64) {
		s := size
		if s <= 0 {
			s = heartbeatCohortSize(len(c.Nodes))
		}
		cohortOf, phases := rackStrideCohorts(c, interval, s)
		if !perNode {
			return cohortOf, phases
		}
		own := make([]int, len(cohortOf))
		nodePhases := make([]float64, len(cohortOf))
		for i, co := range cohortOf {
			own[i] = i
			nodePhases[i] = phases[co]
		}
		return own, nodePhases
	}
	t.Cleanup(func() { heartbeatCohorts = prev })
}

// HideComponentKinds registers the invariant checker, the tracker's one
// bus component, without its kind filter for the rest of the test, so it
// hears every kind and filters it in HandleEvent, as on a broadcast bus:
// the reference the per-kind dispatch must match.
func HideComponentKinds(t testing.TB) {
	prev := subscribe
	subscribe = func(b *event.Bus, s event.Subscriber) { b.Subscribe(struct{ event.Subscriber }{s}) }
	t.Cleanup(func() { subscribe = prev })
}

// Blacklisted reports how many nodes are currently blacklisted.
func (t *Tracker) Blacklisted() int { return t.c.blacklisted }

// ScheduleBlockCorruption registers node's replica of b to silently
// corrupt at simulated time `at`; node < 0 picks the lowest-ID holder at
// fire time. The damage is latent until a gray read detects it. Call
// before Run.
func (t *Tracker) ScheduleBlockCorruption(b dfs.BlockID, node topology.NodeID, at float64) {
	t.plan(injectCorruption, at, blockCorruption{block: b, node: node})
}

// blockCorruption silently corrupts node's replica of block, or the
// lowest-ID holder's when node < 0.
type blockCorruption struct {
	block dfs.BlockID
	node  topology.NodeID
}

func (c blockCorruption) check(*Tracker) error { return nil }

func (c blockCorruption) fire(t *Tracker) {
	node := c.node
	if node < 0 {
		node = lowestHolder(t.c.NN, c.block)
	}
	t.corrupt(c.block, node)
}

// StartHeartbeats starts c's heartbeat driver as a tracker does, calling
// beat once per node per heartbeat interval.
func StartHeartbeats(c *Cluster, beat func(*Node)) {
	newHeartbeatDriver(c, c.Profile.HeartbeatInterval, beat)
}

// CreateFile creates one file of blocks blocks of blockSize bytes on nn at time 0
// through CreateFiles.
func CreateFile(nn *dfs.NameNode, name string, blocks int, blockSize int64) (*dfs.File, error) {
	files, err := nn.CreateFiles([]dfs.FileSpec{{Name: name, Blocks: blocks}}, blockSize, 0)
	if err != nil {
		return nil, err
	}
	return files[0], nil
}
