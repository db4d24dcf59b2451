package mapreduce

import (
	"errors"
	"fmt"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/retry"
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

// plannedDegrade, plannedRestore, plannedCorruption, and plannedFlap are
// gray injections registered before Run.
type plannedDegrade struct {
	node   topology.NodeID
	factor float64
	disk   bool
	at     float64
}

type plannedRestore struct {
	node topology.NodeID
	at   float64
}

type plannedCorruption struct {
	block dfs.BlockID     // < 0: draw a random block at fire time
	node  topology.NodeID // < 0: lowest-ID holder at fire time
	at    float64
}

type plannedFlap struct {
	node topology.NodeID
	at   float64
	down float64
}

// grayState bundles the tracker's gray-failure machinery: planned
// injections, the integrity-aware read path's knobs, and activity tallies.
type grayState struct {
	degrades    []plannedDegrade
	restores    []plannedRestore
	corruptions []plannedCorruption
	flaps       []plannedFlap

	// readsEnabled switches task launches to the integrity-aware read
	// path (checksum verification, retry with backoff, hedged reads).
	readsEnabled bool
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

// EnableGrayReads switches every map-task launch to the integrity-aware
// read path: reads verify the (modelled) checksum and a corrupt read
// quarantines the replica and retries on the next-best copy after a
// capped exponential backoff (retryBase doubling up to retryCap); remote
// reads slower than hedgeTimeout launch a hedged second fetch
// (hedgeTimeout <= 0 disables hedging). rng feeds random corruption
// injection (ScheduleRandomCorruption). Call before Run.
func (t *Tracker) EnableGrayReads(hedgeTimeout, retryBase, retryCap float64, rng *stats.RNG) {
	t.gray.readsEnabled = true
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
	t.gray.degrades = append(t.gray.degrades, plannedDegrade{node: node, factor: factor, disk: disk, at: at})
}

// ScheduleNodeRestore registers a degraded node to return to full speed at
// simulated time `at`. Restoring a healthy node is a no-op. Call before
// Run.
func (t *Tracker) ScheduleNodeRestore(node topology.NodeID, at float64) {
	t.gray.restores = append(t.gray.restores, plannedRestore{node: node, at: at})
}

// ScheduleBlockCorruption registers node's replica of b to silently
// corrupt at simulated time `at`; node < 0 picks the lowest-ID holder at
// fire time. The damage is latent until a gray read detects it. Call
// before Run.
func (t *Tracker) ScheduleBlockCorruption(b dfs.BlockID, node topology.NodeID, at float64) {
	t.gray.corruptions = append(t.gray.corruptions, plannedCorruption{block: b, node: node, at: at})
}

// ScheduleRandomCorruption registers one replica of a block drawn from the
// gray RNG (EnableGrayReads) to silently corrupt at simulated time `at`.
// The victim block is drawn at fire time so identical schedules hit
// identical blocks across policy arms. Call before Run.
func (t *Tracker) ScheduleRandomCorruption(at float64) {
	t.gray.corruptions = append(t.gray.corruptions, plannedCorruption{block: -1, node: -1, at: at})
}

// ScheduleNodeFlap registers a false-dead episode: at simulated time `at`
// the node is declared dead exactly as a crash (tasks die, metadata is
// scrubbed, repair is triggered), but after downFor seconds it
// re-registers with its disk intact and the registry reconciles its stale
// block report. Call before Run.
func (t *Tracker) ScheduleNodeFlap(node topology.NodeID, at, downFor float64) {
	t.gray.flaps = append(t.gray.flaps, plannedFlap{node: node, at: at, down: downFor})
}

// Gray returns the gray-failure activity tallies.
func (t *Tracker) Gray() GrayStats { return t.gray.stats }

// scheduleInjectedGray registers every planned gray injection with the
// engine. Run calls it once, next to scheduleInjectedChurn.
func (t *Tracker) scheduleInjectedGray() error {
	eng := t.c.Eng
	for _, pd := range t.gray.degrades {
		pd := pd
		if int(pd.node) < 0 || int(pd.node) >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: degrade scheduled for invalid node %d", pd.node)
		}
		if pd.factor <= 1 {
			return fmt.Errorf("mapreduce: degrade factor %g for node %d must be > 1", pd.factor, pd.node)
		}
		eng.DeferAt(pd.at, func() { t.degradeNode(t.c.Nodes[pd.node], pd.factor, pd.disk) })
	}
	for _, pr := range t.gray.restores {
		pr := pr
		if int(pr.node) < 0 || int(pr.node) >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: restore scheduled for invalid node %d", pr.node)
		}
		eng.DeferAt(pr.at, func() { t.restoreNode(t.c.Nodes[pr.node]) })
	}
	for _, pc := range t.gray.corruptions {
		pc := pc
		eng.DeferAt(pc.at, func() { t.corruptReplica(pc.block, pc.node) })
	}
	for _, pf := range t.gray.flaps {
		pf := pf
		if int(pf.node) < 0 || int(pf.node) >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: flap scheduled for invalid node %d", pf.node)
		}
		if pf.down <= 0 {
			return fmt.Errorf("mapreduce: flap downtime %g for node %d must be > 0", pf.down, pf.node)
		}
		eng.DeferAt(pf.at, func() { t.flapNode(t.c.Nodes[pf.node], pf.down) })
	}
	return nil
}

// degradeNode starts one gray episode on a live node and publishes
// NodeDegrade (Aux: the multiplier in milli-units, Flag: disk).
func (t *Tracker) degradeNode(node *Node, factor float64, disk bool) {
	if !node.Up {
		return // died before the episode started
	}
	if disk {
		node.DiskFactor = factor
	} else {
		node.SlowFactor = factor
	}
	t.gray.stats.Degrades++
	ev := event.New(event.NodeDegrade)
	ev.Node = int32(node.ID)
	ev.Rack = int32(t.c.Topo.Rack(node.ID))
	ev.Aux = int64(factor * 1000)
	ev.Flag = disk
	t.bus.Publish(ev)
}

// plannedFactor reports whether v is a value degradeNode can leave in
// node's slow (disk=false) or disk (disk=true) factor: 1, or the factor
// of a planned degradation of that node in that dimension.
func (g *grayState) plannedFactor(node topology.NodeID, v float64, disk bool) bool {
	if v == 1 {
		return true
	}
	for _, pd := range g.degrades {
		if pd.node == node && pd.disk == disk && pd.factor == v {
			return true
		}
	}
	return false
}

// restoreNode ends a node's gray episode(s) and publishes NodeRestore
// (Flag mirrors whether a disk degradation was among them). Restoring a
// healthy node is a no-op.
func (t *Tracker) restoreNode(node *Node) {
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

// corruptReplica executes one scheduled corruption: resolve the victim
// (random block / lowest-ID holder when unspecified) and mark it. No
// event fires — corruption is silent until a read detects it.
func (t *Tracker) corruptReplica(b dfs.BlockID, node topology.NodeID) {
	if b < 0 {
		if t.gray.rng == nil || t.c.NN.Blocks() == 0 {
			return
		}
		// Block IDs are dense (allocated sequentially from zero), so one
		// draw picks uniformly; the same schedule corrupts the same block
		// in every policy arm regardless of replica placement.
		b = dfs.BlockID(t.gray.rng.Intn(t.c.NN.Blocks()))
	}
	if node < 0 {
		best := topology.NodeID(-1)
		t.c.NN.ForEachLocation(b, func(n topology.NodeID, _ dfs.ReplicaKind) bool {
			if best < 0 || n < best {
				best = n
			}
			return true
		})
		if best < 0 {
			return // block currently unavailable: nothing to corrupt
		}
		node = best
	}
	if err := t.c.NN.MarkCorrupt(b, node); err != nil {
		return // replica vanished between scheduling and firing
	}
	t.gray.stats.CorruptionsInjected++
}

// flapNode executes one false-dead episode: the node dies exactly like a
// crash (heartbeat loss — tasks killed, metadata scrubbed, repair
// triggered), but the rejoin carries the pre-failure block report so the
// registry must reconcile stale replicas instead of starting empty.
func (t *Tracker) flapNode(node *Node, downFor float64) {
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
	t.c.Eng.DeferTag(downFor, &rejoinTag{node: node.ID, stale: stale},
		func() { t.nodeUp(node, true, stale) })
	// The cluster believes the node is dead: repair rounds start. If the
	// flap window is shorter than the detection delay, the rejoin restores
	// the replicas first and the round finds nothing under-replicated.
	t.scheduleRepairs()
}

// grayRead models the integrity-aware read path for one map attempt on
// node: choose the best source (local replica first), verify the checksum
// after reading, and on a corrupt read quarantine the replica (which
// evicts it and triggers repair), wait out a capped exponential backoff,
// and retry on the next-best copy. Remote reads slower than hedgeTimeout
// launch a backup fetch from the next-best source and the faster fetch
// wins. The return value is the total modelled read time; detection,
// retry, and hedge events are published at their offsets into that span.
func (t *Tracker) grayRead(j *Job, node *Node, b dfs.BlockID, size int64) float64 {
	g := &t.gray
	elapsed := 0.0
	var excluded map[topology.NodeID]bool
	for attempt := 0; ; attempt++ {
		src, local, dur := t.chooseGraySource(node, b, size, excluded)
		if src < 0 {
			// Every replica is gone or already found corrupt: model a
			// cold-storage restore at half disk speed, as the plain path
			// does when all replicas are lost.
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
			t.deferQuarantine(elapsed, b, src)
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

// deferQuarantine schedules the checksum-failure handling at its offset
// into the read: quarantine the replica (evicting it and updating every
// locality index via the usual events) and trigger a repair round. A
// concurrent reader may have already quarantined it; re-check at fire
// time.
func (t *Tracker) deferQuarantine(offset float64, b dfs.BlockID, src topology.NodeID) {
	t.c.Eng.DeferTag(offset, &quarantineTag{b: b, src: src},
		func() { t.quarantineNow(b, src, 0) })
}

// quarantineNow performs the checksum-failure report. When the master is
// down the reader holds its verdict and re-reports with capped exponential
// backoff (outageRetry counts consecutive retries); any other error means
// the replica vanished meanwhile (failure, eviction) and the report drops.
func (t *Tracker) quarantineNow(b dfs.BlockID, src topology.NodeID, outageRetry int) {
	if !t.c.NN.IsCorrupt(b, src) {
		return // already quarantined by an earlier reader
	}
	if err := t.c.NN.QuarantineReplica(b, src); err != nil {
		if errors.Is(err, dfs.ErrMasterDown) {
			if outageRetry == 0 {
				// Count the held verdict once, not once per retry tick.
				t.master.outageReads++
				t.master.stats.DeferredReads++
			}
			t.c.Eng.DeferTag(t.masterRetryDelay(outageRetry),
				&quarantineTag{b: b, src: src, retry: outageRetry + 1},
				func() { t.quarantineNow(b, src, outageRetry+1) })
		}
		return
	}
	t.gray.stats.CorruptionsDetected++
	t.scheduleRepairs()
}

// trackRemoteRead accounts one winning remote fetch against the
// destination NIC for the [start, start+dur] window of the read span.
func (t *Tracker) trackRemoteRead(node *Node, start, dur float64) {
	begin := t.beginRemoteRead(node, dur)
	if start <= 0 {
		begin()
		return
	}
	t.c.Eng.DeferTag(start, &readBeginTag{node: node.ID, dur: dur}, begin)
}

// beginRemoteRead returns the closure that opens a dur-long NIC
// accounting window on node (shared by trackRemoteRead and tag decode).
func (t *Tracker) beginRemoteRead(node *Node, dur float64) func() {
	return func() {
		node.ActiveRemoteReads++
		t.c.Eng.DeferTag(dur, t.releaseTag(node),
			func() { node.ActiveRemoteReads-- })
	}
}

// publishAt publishes ev now (offset <= 0) or at the given offset into
// the future, stamped with the then-current simulation time.
func (t *Tracker) publishAt(offset float64, ev event.Event) {
	if offset <= 0 {
		t.bus.Publish(ev)
		return
	}
	t.c.Eng.DeferTag(offset, &grayPublishTag{ev: ev}, func() { t.bus.Publish(ev) })
}
