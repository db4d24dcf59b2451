package mapreduce

import (
	"errors"
	"fmt"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/retry"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// Gray failures: the injuries real clusters suffer far more often than
// clean crashes — slow nodes, degraded disks, silently corrupted replicas,
// and nodes wrongly declared dead that rejoin moments later. Unlike the
// kill path (failure.go), a gray node keeps heartbeating and keeps its
// replicas, so the pressure lands on delay scheduling, the speculator, and
// the integrity-aware read path instead of on requeue/blacklist machinery.
//
// All injection is seeded and scheduled before Run; with nothing scheduled
// and gray reads disabled, every code path below is unreachable or
// multiplies by exactly 1.0, keeping healthy runs bit-identical.

// GrayStats tallies the gray-failure machinery's activity across one run.
type GrayStats struct {
	// Degrades and Restores count service/disk degradation episodes
	// starting and ending.
	Degrades, Restores int
	// Flaps counts false-dead declarations; ReplicasRestored counts the
	// stale replicas reconciled back into the registry on flap rejoins.
	Flaps            int
	ReplicasRestored int
	// CorruptionsInjected counts replicas silently corrupted;
	// CorruptionsDetected counts checksum failures caught on read (each
	// quarantines the replica and triggers repair).
	CorruptionsInjected, CorruptionsDetected int
	// ReadRetries counts reads that fell back to another replica after a
	// corrupt read; HedgedReads counts backup fetches launched for slow
	// remote reads, of which HedgeWins finished before the primary fetch.
	ReadRetries            int
	HedgedReads, HedgeWins int
}

// grayState bundles the tracker's gray-failure machinery: the
// integrity-aware read path's knobs and activity tallies.
type grayState struct {
	// hedgeTimeout is the remote-read duration beyond which a backup
	// fetch from the next-best source is launched (<= 0 disables hedging).
	hedgeTimeout float64
	// retryBase and retryCap bound the capped exponential backoff between
	// a corrupt-read detection and the retry on the next-best replica.
	retryBase, retryCap float64
	// rng draws random corruption victims (a dedicated seed stream).
	rng *stats.RNG

	stats GrayStats
}

// EnableGrayReads sets the knobs of the integrity-aware read every
// map-task launch makes (grayRead): a corrupt read quarantines the
// replica and retries on the next-best copy after a capped exponential
// backoff (retryBase doubling up to retryCap); remote reads slower than
// hedgeTimeout launch a hedged second fetch (hedgeTimeout <= 0 disables
// hedging). rng feeds random corruption injection
// (ScheduleRandomCorruption). Without this call the read neither hedges
// nor backs off before a retry. Call before Run.
func (t *Tracker) EnableGrayReads(hedgeTimeout, retryBase, retryCap float64, rng *stats.RNG) {
	t.gray.hedgeTimeout = hedgeTimeout
	t.gray.retryBase = retryBase
	t.gray.retryCap = retryCap
	t.gray.rng = rng
}

// ScheduleNodeDegrade registers node to go gray at simulated time `at`:
// disk=false multiplies its task service time by factor (straggler);
// disk=true divides its effective disk bandwidth by factor (dying disk).
// factor must be > 1. Call before Run.
func (t *Tracker) ScheduleNodeDegrade(node topology.NodeID, factor float64, disk bool, at float64) {
	t.plan(injectDegrade, at, nodeDegrade{node: node, factor: factor, disk: disk})
}

// ScheduleNodeRestore registers a degraded node to return to full speed at
// simulated time `at`. Restoring a healthy node is a no-op. Call before
// Run.
func (t *Tracker) ScheduleNodeRestore(node topology.NodeID, at float64) {
	t.plan(injectRestore, at, nodeRestore{node: node})
}

// ScheduleRandomCorruption registers one replica of a block drawn from the
// gray RNG (EnableGrayReads) to silently corrupt at simulated time `at`.
// The victim block is drawn at fire time so identical schedules hit
// identical blocks across policy arms. Call before Run.
func (t *Tracker) ScheduleRandomCorruption(at float64) {
	t.plan(injectCorruption, at, randomCorruption{})
}

// ScheduleNodeFlap registers a false-dead episode: at simulated time `at`
// the node is declared dead exactly as a crash (tasks die, metadata is
// scrubbed, repair is triggered), but after downFor seconds it
// re-registers with its disk intact and the registry reconciles its stale
// block report. Call before Run.
func (t *Tracker) ScheduleNodeFlap(node topology.NodeID, at, downFor float64) {
	t.plan(injectFlap, at, nodeFlap{node: node, down: downFor})
}

// Gray returns the gray-failure activity tallies.
func (t *Tracker) Gray() GrayStats { return t.gray.stats }

// nodeDegrade starts one gray episode on a live node and publishes
// NodeDegrade (Aux: the multiplier in milli-units, Flag: disk).
type nodeDegrade struct {
	node   topology.NodeID
	factor float64
	disk   bool
}

func (d nodeDegrade) check(t *Tracker) error {
	if err := t.checkNode(d.node, "degrade scheduled for"); err != nil {
		return err
	}
	if !(d.factor > 1) {
		return fmt.Errorf("mapreduce: degrade factor %g for node %d must be > 1", d.factor, d.node)
	}
	return nil
}

func (d nodeDegrade) fire(t *Tracker) {
	node := t.c.Nodes[d.node]
	if !node.Up {
		return // died before the episode started
	}
	if d.disk {
		node.DiskFactor = d.factor
	} else {
		node.SlowFactor = d.factor
	}
	t.gray.stats.Degrades++
	ev := event.New(event.NodeDegrade)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	ev.Aux = int64(d.factor * 1000)
	ev.Flag = d.disk
	t.bus.Publish(ev)
}

// nodeRestore ends a node's gray episode(s) and publishes NodeRestore
// (Flag mirrors whether a disk degradation was among them). Restoring a
// healthy node is a no-op.
type nodeRestore struct{ node topology.NodeID }

func (r nodeRestore) check(t *Tracker) error { return t.checkNode(r.node, "restore scheduled for") }

func (r nodeRestore) fire(t *Tracker) {
	node := t.c.Nodes[r.node]
	if node.SlowFactor == 1 && node.DiskFactor == 1 {
		return
	}
	disk := node.DiskFactor != 1
	node.SlowFactor, node.DiskFactor = 1, 1
	t.gray.stats.Restores++
	ev := event.New(event.NodeRestore)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	ev.Flag = disk
	t.bus.Publish(ev)
}

// randomCorruption silently corrupts the lowest-ID holder's replica of a
// block drawn from the gray RNG. No event fires — corruption is silent
// until a read detects it.
type randomCorruption struct{}

func (randomCorruption) check(*Tracker) error { return nil }

func (randomCorruption) fire(t *Tracker) {
	if t.gray.rng == nil || t.c.NN.Blocks() == 0 {
		return
	}
	// Block IDs are dense (allocated sequentially from zero), so one draw
	// picks uniformly; the same schedule corrupts the same block in every
	// policy arm regardless of replica placement.
	b := dfs.BlockID(t.gray.rng.Intn(t.c.NN.Blocks()))
	t.corrupt(b, lowestHolder(t.c.NN, b))
}

// lowestHolder is the lowest-ID node holding a replica of b, or -1 when
// the block is currently unavailable.
func lowestHolder(nn *dfs.NameNode, b dfs.BlockID) topology.NodeID {
	best := topology.NodeID(-1)
	nn.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
		if best < 0 || n < best {
			best = n
		}
		return true
	})
	return best
}

// corrupt marks node's replica of b corrupt and counts the injection. A
// negative node (no holder) or a replica that vanished between scheduling
// and firing leaves nothing to corrupt.
func (t *Tracker) corrupt(b dfs.BlockID, node topology.NodeID) {
	if node < 0 || t.c.NN.MarkCorrupt(b, node) != nil {
		return
	}
	t.gray.stats.CorruptionsInjected++
}

// nodeFlap is one false-dead episode: the node dies exactly like a crash
// (heartbeat loss — tasks killed, metadata scrubbed, repair triggered),
// but the rejoin down seconds later carries the pre-failure block report,
// so the registry must reconcile stale replicas instead of starting
// empty.
type nodeFlap struct {
	node topology.NodeID
	down float64
}

func (f nodeFlap) check(t *Tracker) error {
	if err := t.checkNode(f.node, "flap scheduled for"); err != nil {
		return err
	}
	if !(f.down > 0) {
		return fmt.Errorf("mapreduce: flap downtime %g for node %d must be > 0", f.down, f.node)
	}
	return nil
}

func (f nodeFlap) fire(t *Tracker) {
	node := t.c.Nodes[f.node]
	// A flap IS a master decision — the false-dead declaration comes from
	// the master's heartbeat timeout. No master, no declaration: the
	// episode simply does not happen.
	if !node.Up || t.master.down {
		return
	}
	t.nodeDown(node, -1)
	fe := &t.failureEvents[len(t.failureEvents)-1]
	fe.Flap = true
	t.gray.stats.Flaps++
	// Capture the block report now: what the node's disk still holds is
	// exactly what the failure scrubbed.
	rep := fe.Report
	stale := make([]dfs.StaleReplica, 0, len(rep.LostPrimaries)+len(rep.LostDynamic))
	for _, b := range rep.LostPrimaries {
		stale = append(stale, dfs.StaleReplica{Block: b, Kind: dfs.Primary})
	}
	for _, b := range rep.LostDynamic {
		stale = append(stale, dfs.StaleReplica{Block: b, Kind: dfs.Dynamic})
	}
	t.after(f.down, &rejoinTag{node: node.ID, stale: stale})
	// The cluster believes the node is dead: repair rounds start. If the
	// flap window is shorter than the detection delay, the rejoin restores
	// the replicas first and the round finds nothing under-replicated.
	t.scheduleRepairs()
}

// rejoinTag is a flapping node's re-registration with its stale block
// report.
type rejoinTag struct {
	node  topology.NodeID
	stale []dfs.StaleReplica
}

func (r *rejoinTag) TagKind() uint16 { return TagRejoin }
func (r *rejoinTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &r.node)
	snapshot.Len(w, &r.stale, 8)
	for i := range r.stale {
		snapshot.Int(w, &r.stale[i].Block)
		snapshot.Byte(w, &r.stale[i].Kind)
	}
}
func (r *rejoinTag) check(t *Tracker) error { return t.checkNode(r.node, "rejoin tag names") }
func (r *rejoinTag) fire(t *Tracker)        { t.nodeUp(t.c.Nodes[r.node], true, r.stale) }

// grayRead models the read of one map attempt on node, the one read path
// every launch takes: choose the best source (local replica first),
// verify the checksum after reading, and on a corrupt read quarantine the
// replica (which evicts it and triggers repair), wait out a capped
// exponential backoff, and retry on the next-best copy. Remote reads
// slower than hedgeTimeout launch a backup fetch from the next-best
// source and the faster fetch wins. The return value is the total
// modelled read time; detection, retry, and hedge events are published at
// their offsets into that span, and the winning remote fetch holds the
// reader's NIC for its window.
func (t *Tracker) grayRead(j *Job, node *Node, b dfs.BlockID, size int64) float64 {
	g := &t.gray
	elapsed := 0.0
	var excluded map[topology.NodeID]bool
	for attempt := 0; ; attempt++ {
		src, local, dur := t.chooseGraySource(node, b, size, excluded)
		if src < 0 {
			// Every replica is gone (e.g. lost to failures) or already
			// found corrupt: model a cold-storage restore at half disk
			// speed so the run degrades instead of hanging.
			return elapsed + t.c.LocalReadTime(node.ID, size)*2
		}
		// Hedge a slow remote read: at the timeout, a backup fetch starts
		// from the next-best source; the faster of the two wins.
		if !local && g.hedgeTimeout > 0 && dur > g.hedgeTimeout {
			exc := make(map[topology.NodeID]bool, len(excluded)+1)
			for n := range excluded {
				exc[n] = true
			}
			exc[src] = true
			if hdur, hsrc, err := t.c.RemoteReadTimeExcluding(b, node.ID, size, exc); err == nil {
				hedged := g.hedgeTimeout + hdur
				won := hedged < dur
				g.stats.HedgedReads++
				hev := event.New(event.HedgedRead)
				hev.Job = int32(j.Spec.ID)
				hev.Block = int64(b)
				hev.Node = int32(node.ID)
				hev.Rack = int32(t.c.Topo.Rack(node.ID))
				hev.Aux = int64(hsrc)
				hev.Flag = won
				t.publishAt(elapsed+g.hedgeTimeout, hev)
				if won {
					g.stats.HedgeWins++
					src, dur = hsrc, hedged
				}
			}
		}
		if t.c.NN.IsCorrupt(b, src) {
			// The bad bytes are fully read before the checksum fails.
			elapsed += dur
			t.after(elapsed, &quarantineTag{b: b, src: src})
			if excluded == nil {
				excluded = make(map[topology.NodeID]bool, 2)
			}
			excluded[src] = true
			elapsed += retry.Backoff{Base: g.retryBase, Cap: g.retryCap}.Delay(attempt)
			g.stats.ReadRetries++
			rev := event.New(event.ReadRetry)
			rev.Job = int32(j.Spec.ID)
			rev.Block = int64(b)
			rev.Node = int32(node.ID)
			rev.Rack = int32(t.c.Topo.Rack(node.ID))
			rev.Aux = int64(attempt + 1)
			t.publishAt(elapsed, rev)
			continue
		}
		if !local {
			t.trackRemoteRead(node, elapsed, dur)
		}
		return elapsed + dur
	}
}

// chooseGraySource picks the read source for the gray path: the reader's
// own replica when present (and not excluded by an earlier corrupt read),
// otherwise the best remote source outside the excluded set. src < 0 means
// no source remains. Corrupt replicas are NOT skipped — the reader cannot
// know until the checksum fails.
func (t *Tracker) chooseGraySource(node *Node, b dfs.BlockID, size int64, excluded map[topology.NodeID]bool) (src topology.NodeID, local bool, dur float64) {
	if !excluded[node.ID] && t.c.NN.HasReplica(b, node.ID) {
		return node.ID, true, t.c.LocalReadTime(node.ID, size)
	}
	rdur, rsrc, err := t.c.RemoteReadTimeExcluding(b, node.ID, size, excluded)
	if err != nil {
		return -1, false, 0
	}
	return rsrc, false, rdur
}

// quarantineTag is a checksum-failure report, deferred to its offset
// into the read: quarantine the replica (evicting it from the name node,
// which every later locality lookup reads) and trigger a repair round. A
// concurrent reader may have already quarantined it; it is re-checked at
// fire time. When the master is down the reader holds its verdict and
// re-reports with capped exponential backoff (retry counts consecutive
// retries); any other error means the replica vanished meanwhile
// (failure, eviction) and the report drops.
type quarantineTag struct {
	b     dfs.BlockID
	src   topology.NodeID
	retry int
}

func (q *quarantineTag) TagKind() uint16 { return TagQuarantine }
func (q *quarantineTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &q.b)
	snapshot.Int(w, &q.src)
	snapshot.Int(w, &q.retry)
}
func (q *quarantineTag) check(*Tracker) error { return nil }

func (q *quarantineTag) fire(t *Tracker) {
	if !t.c.NN.IsCorrupt(q.b, q.src) {
		return // already quarantined by an earlier reader
	}
	if err := t.c.NN.QuarantineReplica(q.b, q.src); err != nil {
		if errors.Is(err, dfs.ErrMasterDown) {
			if q.retry == 0 {
				// Count the held verdict once, not once per retry tick.
				t.master.outageReads++
				t.master.stats.DeferredReads++
			}
			t.after(t.masterRetryDelay(q.retry), &quarantineTag{b: q.b, src: q.src, retry: q.retry + 1})
		}
		return
	}
	t.gray.stats.CorruptionsDetected++
	t.scheduleRepairs()
}

// trackRemoteRead accounts one winning remote fetch against the
// destination NIC for the [start, start+dur] window of the read span.
func (t *Tracker) trackRemoteRead(node *Node, start, dur float64) {
	if start <= 0 {
		(&readBeginTag{node: node.ID, dur: dur}).fire(t)
		return
	}
	t.after(start, &readBeginTag{node: node.ID, dur: dur})
}

// readBeginTag opens a dur-long NIC accounting window on node.
type readBeginTag struct {
	node topology.NodeID
	dur  float64
}

func (r *readBeginTag) TagKind() uint16 { return TagReadBegin }
func (r *readBeginTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &r.node)
	w.F64(&r.dur)
}
func (r *readBeginTag) check(t *Tracker) error { return t.checkNode(r.node, "read-begin tag names") }

func (r *readBeginTag) fire(t *Tracker) {
	t.c.Nodes[r.node].ActiveRemoteReads++
	// Release tags are kept per node, so a read's release allocates no tag.
	release := &t.releaseTags[r.node]
	release.node = r.node
	t.after(r.dur, release)
}

// readReleaseTag closes a NIC accounting window on node.
type readReleaseTag struct{ node topology.NodeID }

func (r *readReleaseTag) TagKind() uint16            { return TagReadRelease }
func (r *readReleaseTag) WalkTag(w *snapshot.Walker) { snapshot.Int(w, &r.node) }
func (r *readReleaseTag) check(t *Tracker) error {
	return t.checkNode(r.node, "read-release tag names")
}
func (r *readReleaseTag) fire(t *Tracker) { t.c.Nodes[r.node].ActiveRemoteReads-- }

// publishAt publishes ev now (offset <= 0) or at the given offset into
// the future, stamped with the then-current simulation time.
func (t *Tracker) publishAt(offset float64, ev event.Event) {
	if offset <= 0 {
		t.bus.Publish(ev)
		return
	}
	t.after(offset, &grayPublishTag{ev: ev})
}

// grayPublishTag publishes a gray-read event at its offset into the read.
type grayPublishTag struct{ ev event.Event }

func (g *grayPublishTag) TagKind() uint16 { return TagGrayPublish }
func (g *grayPublishTag) WalkTag(w *snapshot.Walker) {
	// Time is omitted: the bus stamps it at Publish.
	snapshot.Byte(w, &g.ev.Kind)
	snapshot.Int(w, &g.ev.Node)
	snapshot.Int(w, &g.ev.Rack)
	snapshot.Int(w, &g.ev.Job)
	snapshot.Int(w, &g.ev.File)
	w.I64(&g.ev.Block)
	w.I64(&g.ev.Aux)
	w.Bool(&g.ev.Flag)
}
func (g *grayPublishTag) check(*Tracker) error { return nil }
func (g *grayPublishTag) fire(t *Tracker)      { t.bus.Publish(g.ev) }
