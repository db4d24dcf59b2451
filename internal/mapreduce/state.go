package mapreduce

import (
	"cmp"
	"fmt"
	"slices"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// State-mode serialization of the compute layer. WalkState walks the
// tracker's complete mutable state — nodes, jobs, results, scheduler
// queues, in-flight attempts, fault/gray/master machinery, and RNG stream
// positions — so a resume can restore it in O(state) instead of replaying
// the run's whole event history. The image is also the resume check: a
// decoded tracker must re-encode to the stored bytes before the engine
// goes live, and a replayed one must encode to them at the cut.
//
// Runtime-deferred closures cannot ride the image directly; each runtime
// deferral is an action that is also its pooled event's tag (sim.EventTag,
// see actions.go), so DecodeEvent rebuilds it from the payload. In-flight
// task attempts keep their *sim.Event handles and are marked sim.Owned:
// the tracker serializes their (when, seq) coordinates itself.

// SelectorState is implemented by task selectors whose mutable state can
// ride a state image (internal/scheduler's FIFO and Fair both do). A run
// whose selector lacks it cannot be checkpointed: the write fails.
// Decoding resolves job IDs through jobs, the tracker's registered jobs.
type SelectorState interface {
	WalkState(w *snapshot.Walker, jobs map[int32]*Job) error
}

// walkJob walks one job's complete scheduling state. A decoded spec must
// pass the workload's per-job rule: the job's node-local lookups read its
// input window from its file.
func (t *Tracker) walkJob(w *snapshot.Walker, j *Job) error {
	workload.WalkJob(w, &j.Spec)
	if w.Decoding() {
		if err := w.Err(); err != nil {
			return err
		}
		spec := j.Spec
		if err := t.wl.CheckJob(spec.ID, spec); err != nil {
			return fmt.Errorf("mapreduce: job state: %w", err)
		}
		*j = Job{
			Spec:       spec,
			File:       t.files[spec.File],
			cluster:    t.c,
			pendingSeq: make(map[dfs.BlockID]uint64, spec.NumMaps),
		}
	}
	snapshot.Len(w, &j.pending, 16)
	for i := range j.pending {
		w.U64(&j.pending[i].seq)
		snapshot.Int(w, &j.pending[i].b)
	}
	snapshot.SortedMap(w, &j.pendingSeq, 16, func(w *snapshot.Walker, b dfs.BlockID, seq uint64) (dfs.BlockID, uint64) {
		snapshot.Int(w, &b)
		w.U64(&seq)
		return b, seq
	})
	w.U64(&j.nextSeq)
	snapshot.Int(w, &j.runningMaps)
	snapshot.Int(w, &j.completedMaps)
	snapshot.Int(w, &j.localMaps)
	snapshot.Int(w, &j.rackMaps)
	snapshot.Int(w, &j.remoteMaps)
	w.F64(&j.mapTimeSum)
	w.I64(&j.remoteBytes)
	w.I64(&j.outputBytes)
	w.F64(&j.firstTaskTime)
	snapshot.Int(w, &j.pendingReduces)
	snapshot.Int(w, &j.runningReduces)
	snapshot.Int(w, &j.finishedReduces)
	snapshot.SortedMap(w, &j.attempts, 16, func(w *snapshot.Walker, b dfs.BlockID, n int) (dfs.BlockID, int) {
		snapshot.Int(w, &b)
		snapshot.Int(w, &n)
		return b, n
	})
	w.Bool(&j.finished)
	w.Bool(&j.failed)
	w.F64(&j.finishTime)
	return w.Err()
}

// walkJobs walks a job list; decoding fills it with fresh jobs.
func (t *Tracker) walkJobs(w *snapshot.Walker, jobs *[]*Job) error {
	snapshot.Len(w, jobs, 8)
	for i := range *jobs {
		if w.Decoding() {
			(*jobs)[i] = new(Job)
		}
		if err := t.walkJob(w, (*jobs)[i]); err != nil {
			return err
		}
	}
	return nil
}

// zombieJobs returns jobs no longer registered (finished, typically
// failed with attempts still in flight) but still referenced by in-flight
// task records or attempt groups, sorted by ID. Their counters keep
// mutating when those attempts complete, so they must ride the image.
func (t *Tracker) zombieJobs() []*Job {
	var out []*Job
	add := func(j *Job) {
		if j != nil && t.jobByID[int32(j.Spec.ID)] != j && !slices.Contains(out, j) {
			out = append(out, j)
		}
	}
	for _, g := range t.spec.groups {
		add(g.job)
	}
	for _, recs := range t.inflight {
		for rec := range recs {
			add(rec.job)
		}
	}
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.Spec.ID, b.Spec.ID) })
	return out
}

func walkResult(w *snapshot.Walker, r *Result) {
	snapshot.Int(w, &r.ID)
	w.F64(&r.Arrival)
	w.F64(&r.Finish)
	snapshot.Int(w, &r.NumMaps)
	snapshot.Int(w, &r.NumRed)
	snapshot.Int(w, &r.Local)
	snapshot.Int(w, &r.Rack)
	snapshot.Int(w, &r.Remote)
	snapshot.Int(w, &r.FileRank)
	w.F64(&r.MapTimeSum)
	w.I64(&r.RemoteBytes)
	w.I64(&r.OutputBytes)
	snapshot.Int(w, &r.OutputBlocks)
	w.F64(&r.Turnaround)
	w.F64(&r.FirstLaunch)
	w.F64(&r.Dedicated)
	w.Bool(&r.Failed)
}

func walkBlocks(w *snapshot.Walker, blocks *[]dfs.BlockID) {
	snapshot.Len(w, blocks, 8)
	for i := range *blocks {
		snapshot.Int(w, &(*blocks)[i])
	}
}

func walkFailureEvent(w *snapshot.Walker, fe *FailureEvent) {
	w.F64(&fe.Time)
	snapshot.Int(w, &fe.Node)
	snapshot.Int(w, &fe.Rack)
	snapshot.Int(w, &fe.KilledMaps)
	snapshot.Int(w, &fe.KilledReduces)
	snapshot.Int(w, &fe.Report.Node)
	walkBlocks(w, &fe.Report.LostPrimaries)
	walkBlocks(w, &fe.Report.LostDynamic)
	walkBlocks(w, &fe.Report.UnavailableBlocks)
	snapshot.Int(w, &fe.AvailableBlocks)
	snapshot.Int(w, &fe.TotalBlocks)
	w.F64(&fe.WeightedAvailability)
	snapshot.Int(w, &fe.Backlog)
	w.Bool(&fe.Flap)
}

// walkPresence walks whether the run has an optional part. Presence
// follows from run configuration, so the flag is a cheap cross-check.
func walkPresence(w *snapshot.Walker, part string, present bool) error {
	image := present
	w.Bool(&image)
	if err := w.Err(); err != nil || image == present {
		return err
	}
	return fmt.Errorf("mapreduce: %s presence mismatch in state image (image %v, run %v)", part, image, present)
}

// walkOptRNG walks an optional stream behind its presence flag.
func walkOptRNG(w *snapshot.Walker, g *stats.RNG) error {
	if err := walkPresence(w, "RNG", g != nil); err != nil || g == nil {
		return err
	}
	return g.WalkState(w)
}

// byRecOrder orders a node's in-flight records canonically: maps first,
// then by block, job and event seq. State images store them, and
// killAttempts kills them, in this order.
func byRecOrder(a, b *taskRec) int {
	if a.isMap != b.isMap {
		if a.isMap {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.block, b.block), cmp.Compare(a.job.Spec.ID, b.job.Spec.ID), cmp.Compare(a.ev.Seq(), b.ev.Seq()))
}

// WalkState walks the tracker's complete mutable state in a fixed
// layout. Encoding fails only for an unsupported selector. Decoding must
// run on a freshly reconstructed run, between the engine's BeginRestore
// and FinishRestore (in-flight attempts re-enqueue their completion
// events at exact checkpoint coordinates), with the DFS layer already
// decoded.
func (t *Tracker) WalkState(w *snapshot.Walker) error {
	// Per-node slot occupancy and health. Bandwidths are reconstructed
	// from the seed.
	for _, n := range t.c.Nodes {
		snapshot.Int(w, &n.FreeMapSlots)
		snapshot.Int(w, &n.FreeReduceSlots)
		snapshot.Int(w, &n.ActiveRemoteReads)
		w.F64(&n.SlowFactor)
		w.F64(&n.DiskFactor)
		w.Bool(&n.Up)
		blacklisted := n.Blacklisted
		w.Bool(&blacklisted)
		t.c.setBlacklisted(n, blacklisted)
		if w.Decoding() && w.Err() == nil && !(t.plannedFactor(n.ID, n.SlowFactor, false) && t.plannedFactor(n.ID, n.DiskFactor, true)) {
			return fmt.Errorf("%w: node %d gray factors (slow %g, disk %g) match no planned degradation", snapshot.ErrFormat, n.ID, n.SlowFactor, n.DiskFactor)
		}
	}

	snapshot.Int(w, &t.totalJobs)
	snapshot.Int(w, &t.completed)
	// streaming flips to false at the stream horizon; it must survive.
	w.Bool(&t.streaming)
	snapshot.Len(w, &t.results, 8)
	for i := range t.results {
		walkResult(w, &t.results[i])
	}

	if err := t.walkJobs(w, &t.active); err != nil {
		return err
	}
	if w.Decoding() {
		// The demand counters are derived state, recomputed rather than
		// stored: the image bytes do not depend on them.
		t.c.pendingMapInputs, t.c.launchableReduces = 0, 0
		for _, j := range t.active {
			t.jobByID[int32(j.Spec.ID)] = j
			j.setRegistered(true)
		}
	}
	zombies := t.zombieJobs()
	if err := t.walkJobs(w, &zombies); err != nil {
		return err
	}
	zombieByID := make(map[int32]*Job, len(zombies))
	for _, j := range zombies {
		zombieByID[int32(j.Spec.ID)] = j
	}
	// jobRef walks a job reference as its ID; decoding resolves it among
	// the registered and zombie jobs.
	jobRef := func(j **Job, where string) error {
		id := 0
		if *j != nil {
			id = (*j).Spec.ID
		}
		snapshot.Int(w, &id)
		if w.Decoding() {
			if *j = t.jobByID[int32(id)]; *j == nil {
				*j = zombieByID[int32(id)]
			}
			if *j == nil {
				return fmt.Errorf("mapreduce: state image names unknown job %d in %s", id, where)
			}
		}
		return nil
	}

	ss, ok := t.sel.(SelectorState)
	if !ok {
		return fmt.Errorf("mapreduce: selector %q does not support state serialization", t.sel.Name())
	}
	name := t.sel.Name()
	w.Str(&name)
	if w.Err() == nil && name != t.sel.Name() {
		return fmt.Errorf("mapreduce: state image was written by selector %q, run uses %q", name, t.sel.Name())
	}
	if err := ss.WalkState(w, t.jobByID); err != nil {
		return err
	}

	// Speculator: attempt groups in creation order, then in-flight task
	// records per node. Group membership (recs) is rebuilt from the
	// records; a record whose group is not in the list (speculation off)
	// carries the group inline.
	snapshot.Int(w, &t.spec.launched)
	snapshot.Len(w, &t.spec.groups, 8)
	groupIdx := make(map[*taskGroup]int, len(t.spec.groups))
	for i := range t.spec.groups {
		if w.Decoding() {
			t.spec.groups[i] = &taskGroup{recs: make(map[*taskRec]bool)}
		}
		g := t.spec.groups[i]
		groupIdx[g] = i
		if err := jobRef(&g.job, "attempt group"); err != nil {
			return err
		}
		snapshot.Int(w, &g.block)
		w.F64(&g.started)
		w.Bool(&g.done)
	}
	hasQualify := t.spec.qualify != nil
	w.Bool(&hasQualify)
	if hasQualify {
		if t.spec.qualify == nil {
			rule, err := policy.DefaultSpeculation(t.c.Profile.SpeculativeFactor).Compile(0)
			if err != nil {
				return fmt.Errorf("mapreduce: built-in speculation rule: %w", err)
			}
			t.spec.qualify = rule
		}
		if err := policy.WalkRuleState(w, t.spec.qualify); err != nil {
			return err
		}
	}

	var busy []*Node
	for _, node := range t.c.Nodes {
		if len(t.inflight[node]) > 0 {
			busy = append(busy, node)
		}
	}
	snapshot.Len(w, &busy, 8)
	for i := range busy {
		id := 0
		if busy[i] != nil {
			id = int(busy[i].ID)
		}
		snapshot.Int(w, &id)
		recs := make([]*taskRec, 0, len(t.inflight[busy[i]]))
		for r := range t.inflight[busy[i]] {
			recs = append(recs, r)
		}
		slices.SortFunc(recs, byRecOrder)
		snapshot.Len(w, &recs, 8)
		if w.Decoding() {
			if err := w.Err(); err != nil {
				return err
			}
			if id < 0 || id >= len(t.c.Nodes) {
				return fmt.Errorf("mapreduce: state image names invalid in-flight node %d", id)
			}
			busy[i] = t.c.Nodes[id]
			t.inflight[busy[i]] = make(map[*taskRec]bool, len(recs))
		}
		if err := t.walkRecs(w, busy[i], recs, jobRef, groupIdx); err != nil {
			return err
		}
	}

	// Failure handler: blame counters and lazily compiled rule state. The
	// image records which rules were compiled; decoding force-compiles the
	// same set (rule compilation is draw-free) and restores their state.
	h := t.faults
	for i := range h.nodeTaskFailures {
		snapshot.Int(w, &h.nodeTaskFailures[i])
	}
	nb := uint32(len(h.blacklistRules))
	w.U32(&nb)
	if nb > 0 && int(nb) != len(h.nodeTaskFailures) {
		return fmt.Errorf("mapreduce: state image has %d blacklist rules, run has %d nodes", nb, len(h.nodeTaskFailures))
	}
	for i := range int(nb) {
		has := i < len(h.blacklistRules) && h.blacklistRules[i] != nil
		w.Bool(&has)
		if !has {
			continue
		}
		if err := policy.WalkRuleState(w, h.blacklistRule(i)); err != nil {
			return err
		}
	}
	hasFail := h.failRule != nil
	w.Bool(&hasFail)
	if hasFail {
		if err := policy.WalkRuleState(w, h.failJobRule()); err != nil {
			return err
		}
	}
	if err := walkOptRNG(w, h.taskFailG); err != nil {
		return err
	}
	if err := walkOptRNG(w, h.blacklistRNG); err != nil {
		return err
	}

	gs := &t.gray.stats
	for _, c := range []*int{&gs.Degrades, &gs.Restores, &gs.Flaps, &gs.ReplicasRestored, &gs.CorruptionsInjected,
		&gs.CorruptionsDetected, &gs.ReadRetries, &gs.HedgedReads, &gs.HedgeWins} {
		snapshot.Int(w, c)
	}
	if err := walkOptRNG(w, t.gray.rng); err != nil {
		return err
	}

	if err := t.walkMaster(w); err != nil {
		return err
	}

	snapshot.Len(w, &t.failureEvents, 8)
	for i := range t.failureEvents {
		walkFailureEvent(w, &t.failureEvents[i])
	}
	snapshot.Len(w, &t.recoveryEvents, 8)
	for i := range t.recoveryEvents {
		re := &t.recoveryEvents[i]
		w.F64(&re.Time)
		snapshot.Int(w, &re.Node)
		snapshot.Int(w, &re.Backlog)
		w.F64(&re.WeightedAvailability)
		snapshot.Int(w, &re.Restored)
	}

	snapshot.Int(w, &t.repairsDone)
	w.F64(&t.lastRepairAt)
	snapshot.SortedMap(w, &t.repairInFlight, 8, walkSetMember[dfs.BlockID])

	if err := walkPresence(w, "heartbeat driver", t.hb != nil); err != nil {
		return err
	}
	if t.hb != nil {
		if err := t.hb.walkState(w); err != nil {
			return err
		}
	}

	if err := t.c.rttG.WalkState(w); err != nil {
		return err
	}
	return t.c.noiseG.WalkState(w)
}

// walkSetMember walks one member of a set kept as a map to true.
func walkSetMember[K ~int | ~int64](w *snapshot.Walker, k K, _ bool) (K, bool) {
	snapshot.Int(w, &k)
	return k, true
}

// walkRecs walks one busy node's in-flight task records in canonical
// order. Decoding rebuilds each record's closure and re-enqueues its
// completion event at the checkpoint coordinates, resolving jobs through
// jobRef and shared attempt groups through their index.
func (t *Tracker) walkRecs(w *snapshot.Walker, node *Node, recs []*taskRec, jobRef func(**Job, string) error, groupIdx map[*taskGroup]int) error {
	groups := t.spec.groups
	for k := range recs {
		if w.Decoding() {
			recs[k] = new(taskRec)
		}
		r := recs[k]
		if err := jobRef(&r.job, "flight"); err != nil {
			return err
		}
		w.Bool(&r.isMap)
		when, seq := 0.0, uint64(0)
		if r.ev != nil {
			when, seq = r.ev.When(), r.ev.Seq()
		}
		w.F64(&when)
		w.U64(&seq)
		if r.isMap {
			snapshot.Int(w, &r.block)
			snapshot.Int(w, &r.loc)
			w.F64(&r.dur)
			gi, shared := groupIdx[r.group]
			if !shared {
				gi = -1
			}
			snapshot.Int(w, &gi)
			if w.Decoding() {
				if gi >= len(groups) {
					return fmt.Errorf("mapreduce: state image references attempt group %d of %d", gi, len(groups))
				}
				r.node = node
				if gi >= 0 {
					r.group = groups[gi]
				} else {
					r.group = &taskGroup{job: r.job, block: r.block, recs: make(map[*taskRec]bool, 1)}
				}
				r.group.recs[r] = true
			}
			if gi < 0 {
				w.F64(&r.group.started)
				w.Bool(&r.group.done)
			}
		}
		if !w.Decoding() {
			continue
		}
		if err := w.Err(); err != nil {
			return err
		}
		fn := func() { t.completeAttempt(r) }
		if !r.isMap {
			fn = func() {
				t.untrack(node, r)
				t.finishReduce(node, r.job)
			}
		}
		r.ev = t.c.Eng.RestoreAt(nil, fn, when, seq)
		t.inflight[node][r] = true
	}
	return nil
}

// walkMaster walks the master failover state: outage latches and
// counters, the outage timeline, deferred node transitions and the
// unobserved set.
func (t *Tracker) walkMaster(w *snapshot.Walker) error {
	m := &t.master
	w.Bool(&m.down)
	snapshot.Byte(w, &m.mode)
	w.F64(&m.downSince)
	w.F64(&m.recoverAt)
	w.I64(&m.outageHeartbeats)
	w.I64(&m.outageReads)
	snapshot.Int(w, &m.stats.Outages)
	w.F64(&m.stats.Downtime)
	w.I64(&m.stats.DeferredHeartbeats)
	w.I64(&m.stats.DeferredReads)
	snapshot.Int(w, &m.stats.KilledMaps)
	snapshot.Int(w, &m.stats.KilledReduces)
	snapshot.Int(w, &m.stats.BlockReports)
	w.F64(&m.stats.WarmupTime)
	snapshot.Len(w, &m.events, 8)
	for i := range m.events {
		me := &m.events[i]
		w.F64(&me.Time)
		kind := string(me.Kind)
		w.Str(&kind)
		me.Kind = MasterEventKind(kind)
		w.F64(&me.WeightedAvailability)
	}
	snapshot.Len(w, &m.pending, 8)
	for i := range m.pending {
		snapshot.Int(w, &m.pending[i].node)
		w.Bool(&m.pending[i].recover)
	}
	recovering := m.unobserved != nil
	snapshot.SortedMap(w, &m.unobserved, 8, walkSetMember[topology.NodeID])
	if !recovering && len(m.unobserved) > 0 {
		return fmt.Errorf("mapreduce: state image carries master outage state but master recovery is not enabled")
	}
	// The retired tracker journal's presence byte, always false, keeps
	// the bytes of images that never had one (the heartbeat driver's
	// coalesced byte is kept the same way).
	return walkPresence(w, "tracker journal", false)
}

// walkState walks the heartbeat driver: cohort slot tables and grid
// positions. Member identity is the node ID, which is the cohort
// ticker's member ID. The image opens with a driver-mode byte that is
// always true (coalesced); keeping it keeps checkpoint bytes unchanged,
// and decoding rejects any other value.
func (hb *heartbeatDriver) walkState(w *snapshot.Walker) error {
	cohorts := hb.ct.Cohorts()
	coalesced, n := true, uint32(cohorts)
	w.Bool(&coalesced)
	if w.Err() == nil && !coalesced {
		return fmt.Errorf("mapreduce: heartbeat state image is not in coalesced mode")
	}
	w.U32(&n)
	if err := w.Err(); err != nil {
		return err
	}
	if int(n) != cohorts {
		return fmt.Errorf("mapreduce: state image has %d heartbeat cohorts, run has %d", n, cohorts)
	}
	return hb.ct.WalkState(w)
}
