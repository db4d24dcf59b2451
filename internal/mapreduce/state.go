package mapreduce

import (
	"fmt"
	"slices"
	"sort"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// State-mode serialization of the compute layer. EncodeState captures the
// tracker's complete mutable state — nodes, jobs, results, scheduler
// queues, in-flight attempts, fault/gray/master machinery, and RNG stream
// positions — so a resume can restore it in O(state) instead of replaying
// the run's whole event history. The image is also the resume check: a
// decoded tracker must re-encode to the stored bytes before the engine
// goes live, and a replayed one must encode to them at the cut.
//
// Runtime-deferred closures cannot ride the image directly; each deferral
// site tags its pooled event (sim.EventTag) with just enough context for
// DecodeEvent to rebuild the identical closure. In-flight task attempts
// keep their *sim.Event handles and are marked sim.Owned: the tracker
// serializes their (when, seq) coordinates itself.

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

type arriveTag struct{ spec workload.Job }

func (t arriveTag) TagKind() uint16 { return TagArrive }
func (t arriveTag) EncodeTag(e *snapshot.Enc) {
	spec := t.spec
	workload.EncodeJob(e, &spec)
}

type requeueTag struct {
	job int
	b   dfs.BlockID
}

func (t requeueTag) TagKind() uint16 { return TagRequeue }
func (t requeueTag) EncodeTag(e *snapshot.Enc) {
	e.Int(t.job)
	e.I64(int64(t.b))
}

type repairScanTag struct{}

func (repairScanTag) TagKind() uint16           { return TagRepairScan }
func (repairScanTag) EncodeTag(e *snapshot.Enc) {}

type repairBlockTag struct {
	b     dfs.BlockID
	retry int
}

func (t repairBlockTag) TagKind() uint16 { return TagRepairBlock }
func (t repairBlockTag) EncodeTag(e *snapshot.Enc) {
	e.I64(int64(t.b))
	e.Int(t.retry)
}

type quarantineTag struct {
	b     dfs.BlockID
	src   topology.NodeID
	retry int
}

func (t quarantineTag) TagKind() uint16 { return TagQuarantine }
func (t quarantineTag) EncodeTag(e *snapshot.Enc) {
	e.I64(int64(t.b))
	e.Int(int(t.src))
	e.Int(t.retry)
}

type grayPublishTag struct{ ev event.Event }

func (t grayPublishTag) TagKind() uint16 { return TagGrayPublish }
func (t grayPublishTag) EncodeTag(e *snapshot.Enc) {
	// Time is omitted: the bus stamps it at Publish.
	e.U8(uint8(t.ev.Kind))
	e.I64(int64(t.ev.Node))
	e.I64(int64(t.ev.Rack))
	e.I64(int64(t.ev.Job))
	e.I64(int64(t.ev.File))
	e.I64(t.ev.Block)
	e.I64(t.ev.Aux)
	e.Bool(t.ev.Flag)
}

type readBeginTag struct {
	node topology.NodeID
	dur  float64
}

func (t readBeginTag) TagKind() uint16 { return TagReadBegin }
func (t readBeginTag) EncodeTag(e *snapshot.Enc) {
	e.Int(int(t.node))
	e.F64(t.dur)
}

type readReleaseTag struct{ node topology.NodeID }

func (t readReleaseTag) TagKind() uint16 { return TagReadRelease }
func (t readReleaseTag) EncodeTag(e *snapshot.Enc) {
	e.Int(int(t.node))
}

type rejoinTag struct {
	node  topology.NodeID
	stale []dfs.StaleReplica
}

func (t rejoinTag) TagKind() uint16 { return TagRejoin }
func (t rejoinTag) EncodeTag(e *snapshot.Enc) {
	e.Int(int(t.node))
	e.U32(uint32(len(t.stale)))
	for _, s := range t.stale {
		e.I64(int64(s.Block))
		e.U8(uint8(s.Kind))
	}
}

// DecodeEvent rebuilds the closure for one tagged pending event from its
// payload, returning the tag to re-attach (so the next checkpoint can
// encode the event again) and the closure to fire.
func (t *Tracker) DecodeEvent(kind uint16, d *snapshot.Dec) (sim.EventTag, func(), error) {
	switch kind {
	case TagArrive:
		spec := workload.DecodeJob(d)
		return arriveTag{spec: spec}, func() { t.arrive(spec) }, d.Err()
	case TagRequeue:
		id := d.Int()
		b := dfs.BlockID(d.I64())
		j := t.jobByID[int32(id)]
		fn := func() {}
		if j != nil {
			// The original closure guards on j.finished; a job already
			// finished at checkpoint time resolves to the same no-op.
			fn = func() {
				if !j.finished {
					j.Requeue(b)
				}
			}
		}
		return requeueTag{job: id, b: b}, fn, d.Err()
	case TagRepairScan:
		return repairScanTag{}, t.repairScan, d.Err()
	case TagRepairBlock:
		b := dfs.BlockID(d.I64())
		retry := d.Int()
		return repairBlockTag{b: b, retry: retry}, func() { t.repairBlock(b, retry) }, d.Err()
	case TagQuarantine:
		b := dfs.BlockID(d.I64())
		src := topology.NodeID(d.Int())
		retry := d.Int()
		return quarantineTag{b: b, src: src, retry: retry},
			func() { t.quarantineNow(b, src, retry) }, d.Err()
	case TagGrayPublish:
		var ev event.Event
		ev.Kind = event.Kind(d.U8())
		ev.Node = int32(d.I64())
		ev.Rack = int32(d.I64())
		ev.Job = int32(d.I64())
		ev.File = int32(d.I64())
		ev.Block = d.I64()
		ev.Aux = d.I64()
		ev.Flag = d.Bool()
		return grayPublishTag{ev: ev}, func() { t.bus.Publish(ev) }, d.Err()
	case TagReadBegin:
		id := d.Int()
		dur := d.F64()
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		if id < 0 || id >= len(t.c.Nodes) {
			return nil, nil, fmt.Errorf("mapreduce: read-begin tag names invalid node %d", id)
		}
		node := t.c.Nodes[id]
		return readBeginTag{node: node.ID, dur: dur}, t.beginRemoteRead(node, dur), nil
	case TagReadRelease:
		id := d.Int()
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		if id < 0 || id >= len(t.c.Nodes) {
			return nil, nil, fmt.Errorf("mapreduce: read-release tag names invalid node %d", id)
		}
		node := t.c.Nodes[id]
		return readReleaseTag{node: node.ID}, func() { node.ActiveRemoteReads-- }, nil
	case TagRejoin:
		id := d.Int()
		n := d.Count(8)
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		if id < 0 || id >= len(t.c.Nodes) {
			return nil, nil, fmt.Errorf("mapreduce: rejoin tag names invalid node %d", id)
		}
		var stale []dfs.StaleReplica
		for i := 0; i < n; i++ {
			b := dfs.BlockID(d.I64())
			kind := dfs.ReplicaKind(d.U8())
			stale = append(stale, dfs.StaleReplica{Block: b, Kind: kind})
		}
		node := t.c.Nodes[id]
		return rejoinTag{node: node.ID, stale: stale},
			func() { t.rejoinWithReport(node, stale) }, d.Err()
	}
	return nil, nil, fmt.Errorf("mapreduce: unknown event tag kind %d", kind)
}

// SelectorState is implemented by task selectors whose mutable state can
// ride a state image (internal/scheduler's FIFO and Fair both do). A run
// whose selector lacks it cannot be checkpointed: the write fails.
type SelectorState interface {
	EncodeState(e *snapshot.Enc)
	DecodeState(d *snapshot.Dec, job func(id int) *Job) error
}

// encodeJobState serializes one job's complete scheduling state. The
// inverted locality index (shards/heaps) is derived from pendingSeq plus
// the replica registry; decodeJobState rebuilds it.
func encodeJobState(enc *snapshot.Enc, j *Job) {
	spec := j.Spec
	workload.EncodeJob(enc, &spec)
	enc.U32(uint32(len(j.pending)))
	for _, e := range j.pending {
		enc.U64(e.seq)
		enc.I64(int64(e.b))
	}
	blocks := make([]dfs.BlockID, 0, len(j.pendingSeq))
	for b := range j.pendingSeq {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.I64(int64(b))
		enc.U64(j.pendingSeq[b])
	}
	enc.U64(j.nextSeq)
	enc.Int(j.runningMaps)
	enc.Int(j.completedMaps)
	enc.Int(j.localMaps)
	enc.Int(j.rackMaps)
	enc.Int(j.remoteMaps)
	enc.F64(j.mapTimeSum)
	enc.I64(j.remoteBytes)
	enc.I64(j.outputBytes)
	enc.F64(j.firstTaskTime)
	enc.Int(j.pendingReduces)
	enc.Int(j.runningReduces)
	enc.Int(j.finishedReduces)
	blocks = blocks[:0]
	for b := range j.attempts {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.I64(int64(b))
		enc.Int(j.attempts[b])
	}
	enc.Bool(j.finished)
	enc.Bool(j.failed)
	enc.F64(j.finishTime)
}

// decodeJobState rebuilds one job from an encodeJobState image, including
// its inverted locality index (heaps are re-pushed from the live pending
// set against the already-restored replica registry — stale entries the
// original heaps carried are unobservable, since lazy discard neither
// publishes events nor draws randomness).
func (t *Tracker) decodeJobState(d *snapshot.Dec) (*Job, error) {
	spec := workload.DecodeJob(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if spec.File < 0 || spec.File >= len(t.files) {
		return nil, fmt.Errorf("mapreduce: job %d state names invalid file %d", spec.ID, spec.File)
	}
	j := &Job{
		Spec:       spec,
		File:       t.files[spec.File],
		cluster:    t.c,
		pendingSeq: make(map[dfs.BlockID]uint64, spec.NumMaps),
		linearScan: spec.NumMaps < indexMinMaps,
	}
	np := d.Count(16)
	for i := 0; i < np; i++ {
		seq := d.U64()
		b := dfs.BlockID(d.I64())
		j.pending = append(j.pending, pendingRef{seq: seq, b: b})
	}
	ns := d.Count(16)
	live := make([]pendingRef, 0, ns)
	for i := 0; i < ns; i++ {
		b := dfs.BlockID(d.I64())
		seq := d.U64()
		j.pendingSeq[b] = seq
		live = append(live, pendingRef{seq: seq, b: b})
	}
	j.nextSeq = d.U64()
	j.runningMaps = d.Int()
	j.completedMaps = d.Int()
	j.localMaps = d.Int()
	j.rackMaps = d.Int()
	j.remoteMaps = d.Int()
	j.mapTimeSum = d.F64()
	j.remoteBytes = d.I64()
	j.outputBytes = d.I64()
	j.firstTaskTime = d.F64()
	j.pendingReduces = d.Int()
	j.runningReduces = d.Int()
	j.finishedReduces = d.Int()
	na := d.Count(16)
	if na > 0 {
		j.attempts = make(map[dfs.BlockID]int, na)
	}
	for i := 0; i < na; i++ {
		b := dfs.BlockID(d.I64())
		j.attempts[b] = d.Int()
	}
	j.finished = d.Bool()
	j.failed = d.Bool()
	j.finishTime = d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !j.linearScan {
		j.shards = make([]*jobRackShard, t.c.racks)
		sort.Slice(live, func(i, k int) bool { return live[i].seq < live[k].seq })
		for _, e := range live {
			j.indexBlock(e.b, e.seq)
		}
	}
	return j, nil
}

// zombieJobs returns jobs no longer registered (finished, typically
// failed with attempts still in flight) but still referenced by in-flight
// task records or attempt groups, sorted by ID. Their counters keep
// mutating when those attempts complete, so they must ride the image.
func (t *Tracker) zombieJobs() []*Job {
	seen := make(map[*Job]bool)
	var out []*Job
	add := func(j *Job) {
		if j == nil || seen[j] || t.jobByID[int32(j.Spec.ID)] == j {
			return
		}
		seen[j] = true
		out = append(out, j)
	}
	for _, g := range t.spec.groups {
		add(g.job)
	}
	for _, recs := range t.inflight {
		for rec := range recs {
			add(rec.job)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Spec.ID < out[k].Spec.ID })
	return out
}

func encodeResult(enc *snapshot.Enc, r Result) {
	enc.Int(r.ID)
	enc.F64(r.Arrival)
	enc.F64(r.Finish)
	enc.Int(r.NumMaps)
	enc.Int(r.NumRed)
	enc.Int(r.Local)
	enc.Int(r.Rack)
	enc.Int(r.Remote)
	enc.Int(r.FileRank)
	enc.F64(r.MapTimeSum)
	enc.I64(r.RemoteBytes)
	enc.I64(r.OutputBytes)
	enc.Int(r.OutputBlocks)
	enc.F64(r.Turnaround)
	enc.F64(r.FirstLaunch)
	enc.F64(r.Dedicated)
	enc.Bool(r.Failed)
}

func decodeResult(d *snapshot.Dec) Result {
	var r Result
	r.ID = d.Int()
	r.Arrival = d.F64()
	r.Finish = d.F64()
	r.NumMaps = d.Int()
	r.NumRed = d.Int()
	r.Local = d.Int()
	r.Rack = d.Int()
	r.Remote = d.Int()
	r.FileRank = d.Int()
	r.MapTimeSum = d.F64()
	r.RemoteBytes = d.I64()
	r.OutputBytes = d.I64()
	r.OutputBlocks = d.Int()
	r.Turnaround = d.F64()
	r.FirstLaunch = d.F64()
	r.Dedicated = d.F64()
	r.Failed = d.Bool()
	return r
}

func encodeBlockList(enc *snapshot.Enc, blocks []dfs.BlockID) {
	enc.U32(uint32(len(blocks)))
	for _, b := range blocks {
		enc.I64(int64(b))
	}
}

func decodeBlockList(d *snapshot.Dec) []dfs.BlockID {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]dfs.BlockID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, dfs.BlockID(d.I64()))
	}
	return out
}

func encodeFailureEvent(enc *snapshot.Enc, fe *FailureEvent) {
	enc.F64(fe.Time)
	enc.Int(int(fe.Node))
	enc.Int(fe.Rack)
	enc.Int(fe.KilledMaps)
	enc.Int(fe.KilledReduces)
	enc.Int(int(fe.Report.Node))
	encodeBlockList(enc, fe.Report.LostPrimaries)
	encodeBlockList(enc, fe.Report.LostDynamic)
	encodeBlockList(enc, fe.Report.UnavailableBlocks)
	enc.Int(fe.AvailableBlocks)
	enc.Int(fe.TotalBlocks)
	enc.F64(fe.WeightedAvailability)
	enc.Int(fe.Backlog)
	enc.Bool(fe.Flap)
}

func decodeFailureEvent(d *snapshot.Dec) FailureEvent {
	var fe FailureEvent
	fe.Time = d.F64()
	fe.Node = topology.NodeID(d.Int())
	fe.Rack = d.Int()
	fe.KilledMaps = d.Int()
	fe.KilledReduces = d.Int()
	fe.Report.Node = topology.NodeID(d.Int())
	fe.Report.LostPrimaries = decodeBlockList(d)
	fe.Report.LostDynamic = decodeBlockList(d)
	fe.Report.UnavailableBlocks = decodeBlockList(d)
	fe.AvailableBlocks = d.Int()
	fe.TotalBlocks = d.Int()
	fe.WeightedAvailability = d.F64()
	fe.Backlog = d.Int()
	fe.Flap = d.Bool()
	return fe
}

// encodeOptRNG writes a presence flag plus the stream state. Presence is
// derived from run configuration, so encode and decode always agree; the
// flag is a cheap cross-check.
func encodeOptRNG(enc *snapshot.Enc, g *stats.RNG) error {
	enc.Bool(g != nil)
	if g == nil {
		return nil
	}
	return g.EncodeState(enc)
}

func decodeOptRNG(d *snapshot.Dec, g *stats.RNG) error {
	has := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if has != (g != nil) {
		return fmt.Errorf("mapreduce: RNG presence mismatch in state image (image %v, run %v)", has, g != nil)
	}
	if g == nil {
		return nil
	}
	return g.DecodeState(d)
}

// EncodeState serializes the tracker's complete mutable state into enc.
// The layout is fixed; DecodeState consumes it field for field. An error
// (an unsupported selector) fails the checkpoint write.
func (t *Tracker) EncodeState(enc *snapshot.Enc) error {
	// Per-node slot occupancy and health. Bandwidths are reconstructed
	// from the seed.
	for _, n := range t.c.Nodes {
		enc.Int(n.FreeMapSlots)
		enc.Int(n.FreeReduceSlots)
		enc.Int(n.ActiveRemoteReads)
		enc.F64(n.SlowFactor)
		enc.F64(n.DiskFactor)
		enc.Bool(n.Up)
		enc.Bool(n.Blacklisted)
	}

	enc.Int(t.totalJobs)
	enc.Int(t.completed)
	// streaming flips to false at the stream horizon; it must survive.
	enc.Bool(t.streaming)
	enc.U32(uint32(len(t.results)))
	for _, r := range t.results {
		encodeResult(enc, r)
	}

	enc.U32(uint32(len(t.active)))
	for _, j := range t.active {
		encodeJobState(enc, j)
	}
	zombies := t.zombieJobs()
	enc.U32(uint32(len(zombies)))
	for _, j := range zombies {
		encodeJobState(enc, j)
	}

	ss, ok := t.sel.(SelectorState)
	if !ok {
		return fmt.Errorf("mapreduce: selector %q does not support state serialization", t.sel.Name())
	}
	enc.Str(t.sel.Name())
	ss.EncodeState(enc)

	// Speculator: attempt groups in creation order, then in-flight task
	// records per node. Group membership (recs) is rebuilt from the
	// records; a record whose group is not in the list (speculation off)
	// carries the group inline.
	enc.Int(t.spec.launched)
	enc.U32(uint32(len(t.spec.groups)))
	groupIdx := make(map[*taskGroup]int, len(t.spec.groups))
	for i, g := range t.spec.groups {
		groupIdx[g] = i
		enc.Int(g.job.Spec.ID)
		enc.I64(int64(g.block))
		enc.F64(g.started)
		enc.Bool(g.done)
	}
	enc.Bool(t.spec.qualify != nil)
	if t.spec.qualify != nil {
		if err := policy.EncodeRuleState(enc, t.spec.qualify); err != nil {
			return err
		}
	}

	withRecs := 0
	for _, node := range t.c.Nodes {
		if len(t.inflight[node]) > 0 {
			withRecs++
		}
	}
	enc.U32(uint32(withRecs))
	for _, node := range t.c.Nodes {
		recs := t.inflight[node]
		if len(recs) == 0 {
			continue
		}
		enc.Int(int(node.ID))
		ordered := make([]*taskRec, 0, len(recs))
		for r := range recs {
			ordered = append(ordered, r)
		}
		sort.Slice(ordered, func(i, k int) bool {
			a, b := ordered[i], ordered[k]
			if a.isMap != b.isMap {
				return a.isMap
			}
			if a.block != b.block {
				return a.block < b.block
			}
			if a.job.Spec.ID != b.job.Spec.ID {
				return a.job.Spec.ID < b.job.Spec.ID
			}
			return a.ev.Seq() < b.ev.Seq()
		})
		enc.U32(uint32(len(ordered)))
		for _, r := range ordered {
			enc.Int(r.job.Spec.ID)
			enc.Bool(r.isMap)
			enc.F64(r.ev.When())
			enc.U64(r.ev.Seq())
			if !r.isMap {
				continue
			}
			enc.I64(int64(r.block))
			enc.Int(int(r.loc))
			enc.F64(r.dur)
			if gi, shared := groupIdx[r.group]; shared {
				enc.Int(gi)
			} else {
				enc.Int(-1)
				enc.F64(r.group.started)
				enc.Bool(r.group.done)
			}
		}
	}

	// Failure handler: blame counters and lazily compiled rule state. The
	// image records which rules were compiled; decode force-compiles the
	// same set (rule compilation is draw-free) and restores their state.
	h := t.faults
	for _, c := range h.nodeTaskFailures {
		enc.Int(c)
	}
	enc.U32(uint32(len(h.blacklistRules)))
	for _, r := range h.blacklistRules {
		enc.Bool(r != nil)
		if r != nil {
			if err := policy.EncodeRuleState(enc, r); err != nil {
				return err
			}
		}
	}
	enc.Bool(h.failRule != nil)
	if h.failRule != nil {
		if err := policy.EncodeRuleState(enc, h.failRule); err != nil {
			return err
		}
	}
	if err := encodeOptRNG(enc, h.taskFailG); err != nil {
		return err
	}
	if err := encodeOptRNG(enc, h.blacklistRNG); err != nil {
		return err
	}

	gs := &t.gray.stats
	enc.Int(gs.Degrades)
	enc.Int(gs.Restores)
	enc.Int(gs.Flaps)
	enc.Int(gs.ReplicasRestored)
	enc.Int(gs.CorruptionsInjected)
	enc.Int(gs.CorruptionsDetected)
	enc.Int(gs.ReadRetries)
	enc.Int(gs.HedgedReads)
	enc.Int(gs.HedgeWins)
	if err := encodeOptRNG(enc, t.gray.rng); err != nil {
		return err
	}

	m := &t.master
	enc.Bool(m.down)
	enc.U8(uint8(m.mode))
	enc.F64(m.downSince)
	enc.F64(m.recoverAt)
	enc.I64(m.outageHeartbeats)
	enc.I64(m.outageReads)
	enc.Int(m.stats.Outages)
	enc.F64(m.stats.Downtime)
	enc.I64(m.stats.DeferredHeartbeats)
	enc.I64(m.stats.DeferredReads)
	enc.Int(m.stats.KilledMaps)
	enc.Int(m.stats.KilledReduces)
	enc.Int(m.stats.BlockReports)
	enc.F64(m.stats.WarmupTime)
	enc.U32(uint32(len(m.events)))
	for _, me := range m.events {
		enc.F64(me.Time)
		enc.Str(string(me.Kind))
		enc.F64(me.WeightedAvailability)
	}
	enc.U32(uint32(len(m.pending)))
	for _, pe := range m.pending {
		enc.Int(int(pe.node))
		enc.Bool(pe.recover)
	}
	unobserved := make([]int, 0, len(m.unobserved))
	for n := range m.unobserved {
		unobserved = append(unobserved, int(n))
	}
	sort.Ints(unobserved)
	enc.U32(uint32(len(unobserved)))
	for _, n := range unobserved {
		enc.Int(n)
	}
	enc.Bool(m.journal != nil)
	if tj := m.journal; tj != nil {
		ids := make([]int32, 0, len(tj.jobs))
		for id := range tj.jobs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		enc.U32(uint32(len(ids)))
		for _, id := range ids {
			jj := tj.jobs[id]
			enc.Int(int(id))
			enc.Int(jj.numMaps)
			enc.Int(jj.completed)
			enc.Bool(jj.finished)
			enc.Bool(jj.failed)
		}
		enc.U32(uint32(len(tj.blame)))
		for _, b := range tj.blame {
			enc.Int(b)
		}
		enc.Int(tj.finished)
	}

	enc.U32(uint32(len(t.failureEvents)))
	for i := range t.failureEvents {
		encodeFailureEvent(enc, &t.failureEvents[i])
	}
	enc.U32(uint32(len(t.recoveryEvents)))
	for _, re := range t.recoveryEvents {
		enc.F64(re.Time)
		enc.Int(int(re.Node))
		enc.Int(re.Backlog)
		enc.F64(re.WeightedAvailability)
		enc.Int(re.Restored)
	}

	enc.Int(t.repairsDone)
	enc.F64(t.lastRepairAt)
	inFlight := make([]dfs.BlockID, 0, len(t.repairInFlight))
	for b := range t.repairInFlight {
		inFlight = append(inFlight, b)
	}
	slices.Sort(inFlight)
	encodeBlockList(enc, inFlight)

	enc.Bool(t.hb != nil)
	if t.hb != nil {
		t.hb.encodeState(enc)
	}

	if err := t.c.rttG.EncodeState(enc); err != nil {
		return err
	}
	return t.c.noiseG.EncodeState(enc)
}

// DecodeState restores the tracker from an EncodeState image. It must run
// on a freshly reconstructed run, between the engine's BeginRestore and
// FinishRestore (in-flight attempts re-enqueue their completion events at
// exact checkpoint coordinates), with the DFS layer already decoded (the
// locality index is rebuilt against the live replica registry).
func (t *Tracker) DecodeState(d *snapshot.Dec) error {
	for _, n := range t.c.Nodes {
		n.FreeMapSlots = d.Int()
		n.FreeReduceSlots = d.Int()
		n.ActiveRemoteReads = d.Int()
		n.SlowFactor = d.F64()
		n.DiskFactor = d.F64()
		n.Up = d.Bool()
		t.c.setBlacklisted(n, d.Bool())
		if d.Err() == nil && !(t.gray.plannedFactor(n.ID, n.SlowFactor, false) && t.gray.plannedFactor(n.ID, n.DiskFactor, true)) {
			return fmt.Errorf("%w: node %d gray factors (slow %g, disk %g) match no planned degradation", snapshot.ErrFormat, n.ID, n.SlowFactor, n.DiskFactor)
		}
	}

	t.totalJobs = d.Int()
	t.completed = d.Int()
	t.streaming = d.Bool()
	nRes := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	t.results = t.results[:0]
	for i := 0; i < nRes; i++ {
		t.results = append(t.results, decodeResult(d))
	}

	nAct := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < nAct; i++ {
		j, err := t.decodeJobState(d)
		if err != nil {
			return err
		}
		t.active = append(t.active, j)
		t.jobByID[int32(j.Spec.ID)] = j
	}
	// The demand counters are derived state, recomputed rather than
	// stored: the image bytes do not depend on them.
	t.c.pendingMapInputs, t.c.launchableReduces = 0, 0
	for _, j := range t.active {
		j.setRegistered(true)
	}
	nz := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	zombies := make(map[int32]*Job, nz)
	for i := 0; i < nz; i++ {
		j, err := t.decodeJobState(d)
		if err != nil {
			return err
		}
		zombies[int32(j.Spec.ID)] = j
	}
	lookup := func(id int32) *Job {
		if j := t.jobByID[id]; j != nil {
			return j
		}
		return zombies[id]
	}

	name := d.Str()
	if err := d.Err(); err != nil {
		return err
	}
	if name != t.sel.Name() {
		return fmt.Errorf("mapreduce: state image was written by selector %q, run uses %q", name, t.sel.Name())
	}
	ss, ok := t.sel.(SelectorState)
	if !ok {
		return fmt.Errorf("mapreduce: selector %q does not support state serialization", t.sel.Name())
	}
	if err := ss.DecodeState(d, func(id int) *Job { return t.jobByID[int32(id)] }); err != nil {
		return err
	}

	t.spec.launched = d.Int()
	ng := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	groups := make([]*taskGroup, 0, ng)
	for i := 0; i < ng; i++ {
		id := d.Int()
		b := dfs.BlockID(d.I64())
		started := d.F64()
		done := d.Bool()
		j := lookup(int32(id))
		if j == nil {
			return fmt.Errorf("mapreduce: state image names unknown job %d in attempt group", id)
		}
		groups = append(groups, &taskGroup{
			job: j, block: b, started: started, done: done,
			recs: make(map[*taskRec]bool),
		})
	}
	t.spec.groups = groups
	if d.Bool() {
		if t.spec.qualify == nil {
			rule, err := policy.DefaultSpeculation(t.c.Profile.SpeculativeFactor).Compile(0)
			if err != nil {
				return fmt.Errorf("mapreduce: built-in speculation rule: %w", err)
			}
			t.spec.qualify = rule
		}
		if err := policy.DecodeRuleState(d, t.spec.qualify); err != nil {
			return err
		}
	}

	withRecs := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < withRecs; i++ {
		id := d.Int()
		nr := d.Count(8)
		if err := d.Err(); err != nil {
			return err
		}
		if id < 0 || id >= len(t.c.Nodes) {
			return fmt.Errorf("mapreduce: state image names invalid in-flight node %d", id)
		}
		node := t.c.Nodes[id]
		set := make(map[*taskRec]bool, nr)
		for k := 0; k < nr; k++ {
			jid := d.Int()
			isMap := d.Bool()
			when := d.F64()
			seq := d.U64()
			j := lookup(int32(jid))
			if j == nil {
				return fmt.Errorf("mapreduce: state image names unknown job %d in flight", jid)
			}
			rec := &taskRec{job: j, isMap: isMap}
			var fn func()
			if isMap {
				rec.block = dfs.BlockID(d.I64())
				rec.loc = Locality(d.Int())
				rec.dur = d.F64()
				rec.node = node
				gi := d.Int()
				var g *taskGroup
				if gi >= 0 {
					if gi >= len(groups) {
						return fmt.Errorf("mapreduce: state image references attempt group %d of %d", gi, len(groups))
					}
					g = groups[gi]
				} else {
					g = &taskGroup{
						job: j, block: rec.block, started: d.F64(), done: d.Bool(),
						recs: make(map[*taskRec]bool, 1),
					}
				}
				rec.group = g
				g.recs[rec] = true
				r := rec
				fn = func() { t.completeAttempt(r) }
			} else {
				r, jj := rec, j
				fn = func() {
					t.untrack(node, r)
					t.finishReduce(node, jj)
				}
			}
			if err := d.Err(); err != nil {
				return err
			}
			ev := t.c.Eng.RestoreHandle(fn)
			t.c.Eng.RestoreAt(ev, when, seq)
			rec.ev = ev
			set[rec] = true
		}
		t.inflight[node] = set
	}

	h := t.faults
	for i := range h.nodeTaskFailures {
		h.nodeTaskFailures[i] = d.Int()
	}
	nb := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if nb > 0 && nb != len(h.nodeTaskFailures) {
		return fmt.Errorf("mapreduce: state image has %d blacklist rules, run has %d nodes", nb, len(h.nodeTaskFailures))
	}
	for i := 0; i < nb; i++ {
		if d.Bool() {
			if err := policy.DecodeRuleState(d, h.blacklistRule(i)); err != nil {
				return err
			}
		}
	}
	if d.Bool() {
		if err := policy.DecodeRuleState(d, h.failJobRule()); err != nil {
			return err
		}
	}
	if err := decodeOptRNG(d, h.taskFailG); err != nil {
		return err
	}
	if err := decodeOptRNG(d, h.blacklistRNG); err != nil {
		return err
	}

	gs := &t.gray.stats
	gs.Degrades = d.Int()
	gs.Restores = d.Int()
	gs.Flaps = d.Int()
	gs.ReplicasRestored = d.Int()
	gs.CorruptionsInjected = d.Int()
	gs.CorruptionsDetected = d.Int()
	gs.ReadRetries = d.Int()
	gs.HedgedReads = d.Int()
	gs.HedgeWins = d.Int()
	if err := decodeOptRNG(d, t.gray.rng); err != nil {
		return err
	}

	m := &t.master
	m.down = d.Bool()
	m.mode = dfs.RecoveryMode(d.U8())
	m.downSince = d.F64()
	m.recoverAt = d.F64()
	m.outageHeartbeats = d.I64()
	m.outageReads = d.I64()
	m.stats.Outages = d.Int()
	m.stats.Downtime = d.F64()
	m.stats.DeferredHeartbeats = d.I64()
	m.stats.DeferredReads = d.I64()
	m.stats.KilledMaps = d.Int()
	m.stats.KilledReduces = d.Int()
	m.stats.BlockReports = d.Int()
	m.stats.WarmupTime = d.F64()
	ne := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < ne; i++ {
		me := MasterEvent{Time: d.F64()}
		me.Kind = MasterEventKind(d.Str())
		me.WeightedAvailability = d.F64()
		m.events = append(m.events, me)
	}
	npend := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < npend; i++ {
		pe := pendingNodeEvent{node: topology.NodeID(d.Int())}
		pe.recover = d.Bool()
		m.pending = append(m.pending, pe)
	}
	nun := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	if nun > 0 && m.unobserved == nil {
		return fmt.Errorf("mapreduce: state image carries master outage state but master recovery is not enabled")
	}
	for i := 0; i < nun; i++ {
		m.unobserved[topology.NodeID(d.Int())] = true
	}
	hasJournal := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasJournal != (m.journal != nil) {
		return fmt.Errorf("mapreduce: tracker journal presence mismatch in state image")
	}
	if tj := m.journal; hasJournal {
		nj := d.Count(8)
		if err := d.Err(); err != nil {
			return err
		}
		for i := 0; i < nj; i++ {
			id := int32(d.Int())
			jj := &journalJob{numMaps: d.Int(), completed: d.Int()}
			jj.finished = d.Bool()
			jj.failed = d.Bool()
			tj.jobs[id] = jj
		}
		nbl := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		if nbl != len(tj.blame) {
			return fmt.Errorf("mapreduce: state image has %d blame counters, run has %d nodes", nbl, len(tj.blame))
		}
		for i := 0; i < nbl; i++ {
			tj.blame[i] = d.Int()
		}
		tj.finished = d.Int()
	}

	nfe := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < nfe; i++ {
		t.failureEvents = append(t.failureEvents, decodeFailureEvent(d))
	}
	nre := d.Count(8)
	if err := d.Err(); err != nil {
		return err
	}
	for i := 0; i < nre; i++ {
		re := RecoveryEvent{Time: d.F64()}
		re.Node = topology.NodeID(d.Int())
		re.Backlog = d.Int()
		re.WeightedAvailability = d.F64()
		re.Restored = d.Int()
		t.recoveryEvents = append(t.recoveryEvents, re)
	}

	t.repairsDone = d.Int()
	t.lastRepairAt = d.F64()
	for _, b := range decodeBlockList(d) {
		t.repairInFlight[b] = true
	}

	hasHB := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasHB != (t.hb != nil) {
		return fmt.Errorf("mapreduce: heartbeat driver presence mismatch in state image")
	}
	if hasHB {
		if err := t.hb.decodeState(d); err != nil {
			return err
		}
	}

	if err := t.c.rttG.DecodeState(d); err != nil {
		return err
	}
	if err := t.c.noiseG.DecodeState(d); err != nil {
		return err
	}
	return d.Err()
}

// encodeState serializes the heartbeat driver: cohort slot tables and
// grid positions. Member identity is the node ID — handles are
// index-aligned with Cluster.Nodes. The image opens with a driver-mode
// byte that is always true (coalesced); keeping it keeps checkpoint
// bytes unchanged, and decode rejects any other value.
func (hb *heartbeatDriver) encodeState(enc *snapshot.Enc) {
	enc.Bool(true)
	id := make(map[*sim.CohortMember]int64, len(hb.handles))
	for i, m := range hb.handles {
		id[m] = int64(i)
	}
	cohorts := hb.ct.Cohorts()
	enc.U32(uint32(len(cohorts)))
	for _, co := range cohorts {
		co.EncodeState(enc, func(m *sim.CohortMember) int64 { return id[m] })
	}
}

func (hb *heartbeatDriver) decodeState(d *snapshot.Dec) error {
	coalesced := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if !coalesced {
		return fmt.Errorf("mapreduce: heartbeat state image is not in coalesced mode")
	}
	cohorts := hb.ct.Cohorts()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(cohorts) {
		return fmt.Errorf("mapreduce: state image has %d heartbeat cohorts, run has %d", n, len(cohorts))
	}
	member := func(id int64) *sim.CohortMember {
		if id < 0 || id >= int64(len(hb.handles)) {
			return nil
		}
		return hb.handles[id]
	}
	for _, co := range cohorts {
		if err := co.DecodeState(d, member); err != nil {
			return err
		}
	}
	return d.Err()
}
