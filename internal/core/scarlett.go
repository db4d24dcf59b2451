package core

import (
	"fmt"
	"sort"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/policy"
	"dare/internal/stats"
	"dare/internal/topology"
)

// Scarlett implements the epoch-based, proactive replication baseline the
// paper positions DARE against (§VI; Ananthanarayanan et al., EuroSys'11).
// Where DARE reacts to individual remote reads at each data node, Scarlett
// runs a centralized controller that
//
//  1. counts file accesses during an epoch,
//  2. at the epoch boundary computes a desired replication factor per
//     file from its observed popularity (one extra replica per
//     AccessesPerReplica accesses, capped),
//  3. creates the planned replicas proactively — paying real network
//     traffic for each copy, unlike DARE's free piggybacked captures —
//     spreading them over the least-loaded nodes to smooth hotspots, and
//  4. ages out replicas that fall out of the plan.
//
// The §VI claim this baseline exists to test: a reactive scheme adapts to
// popularity changes at smaller time scales, while the epoch scheme lags a
// popularity shift by up to one epoch (see the adaptation experiment).
type Scarlett struct {
	cfg   Config
	nn    *dfs.NameNode
	sched DeferFunc

	budget int64

	// accesses counts file accesses in the current epoch.
	accesses map[dfs.FileID]int64
	// holders is dynamicHolders' scratch list.
	holders []topology.NodeID

	// grow is the epoch gate deciding whether a file's popularity earns
	// it extra replicas (built-in: accesses >= AccessesPerReplica). A
	// config file overrides it via Config.Rules.Admit. The replica-count
	// arithmetic, budget check and least-loaded placement stay native.
	grow    policy.Rule
	growCtx growCtx
	now     clock
	// tagDefer, when set (SetTagDefer), replaces sched with a scheduler
	// that records a serializable tag alongside the epoch closure, so the
	// pending epoch boundary survives a state-image checkpoint.
	tagDefer TagDeferFunc

	stats PolicyStats
	// ExtraNetworkBytes is the proactive-copy traffic DARE avoids.
	extraNetworkBytes int64
	errs              []error
	stopped           bool
}

// NewScarlett builds the controller and starts its epoch timer through
// deferFn. cfg fields used: BudgetFraction, Epoch, AccessesPerReplica,
// MaxExtraReplicas (zero values take the Scarlett row's defaults).
func NewScarlett(cfg Config, nn *dfs.NameNode, deferFn DeferFunc) *Scarlett {
	def := builtinConfig(ScarlettPolicy)
	if cfg.Epoch <= 0 {
		cfg.Epoch = def.Epoch
	}
	if cfg.AccessesPerReplica <= 0 {
		cfg.AccessesPerReplica = def.AccessesPerReplica
	}
	if cfg.MaxExtraReplicas <= 0 {
		cfg.MaxExtraReplicas = def.MaxExtraReplicas
	}
	s := &Scarlett{
		cfg:      cfg,
		nn:       nn,
		sched:    deferFn,
		budget:   int64(cfg.BudgetFraction * float64(nn.TotalPrimaryBytes())),
		accesses: make(map[dfs.FileID]int64),
	}
	// Compile the grow gate, the row's admit rule with the quota as its
	// p. The controller is centralized (one decision stream), so a custom
	// stateful rule gets one fixed-seed stream; the built-in gate is
	// stateless and never draws.
	apr := cfg.AccessesPerReplica
	grow, err := mergedRuleSet(ScarlettPolicy, apr, 0, cfg.Rules).Admit.CompileWith(stats.NewRNG(0x5CA21E77))
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("core: scarlett grow rule: %w", err))
		grow, _ = ScarlettPolicy.row().Rules(apr, 0).Admit.Compile(0)
	}
	s.grow = grow
	s.scheduleEpoch()
	return s
}

// growCtx is the policy.Context for the epoch grow gate.
type growCtx struct {
	accesses float64
	now      float64
}

// Val implements policy.Context.
func (c *growCtx) Val(key string) (float64, bool) {
	switch key {
	case "accesses":
		return c.accesses, true
	case "now":
		return c.now, true
	}
	return 0, false
}

// SetNow supplies the simulated clock to time-aware grow rules.
func (s *Scarlett) SetNow(now func() float64) { s.now = now }

func (s *Scarlett) scheduleEpoch() {
	if s.sched == nil && s.tagDefer == nil {
		return // manual stepping (tests call Rebalance directly)
	}
	if s.tagDefer != nil {
		s.tagDefer(s.cfg.Epoch, scarlettEpochTag{}, s.epochFn())
		return
	}
	s.sched(s.cfg.Epoch, s.epochFn())
}

// epochFn is the epoch-boundary closure, split out so a state-image
// restore can rebuild it; the re-arm inside happens live after restore.
func (s *Scarlett) epochFn() func() {
	return func() {
		if s.stopped {
			return
		}
		s.Rebalance()
		s.scheduleEpoch()
	}
}

// Stop halts future epochs (call after the workload drains).
func (s *Scarlett) Stop() { s.stopped = true }

// Kinds implements event.KindFilter: Scarlett hears task launches only.
func (s *Scarlett) Kinds() []event.Kind { return []event.Kind{event.TaskLaunch} }

// HandleEvent implements event.Subscriber: Scarlett watches map-task
// launches on the cluster bus (reduce launches carry Block = -1).
func (s *Scarlett) HandleEvent(ev event.Event) {
	if ev.Kind != event.TaskLaunch || ev.Block < 0 {
		return
	}
	s.OnMapTask(topology.NodeID(ev.Node), dfs.BlockID(ev.Block), dfs.FileID(ev.File), ev.Aux, ev.Flag)
}

// OnMapTask records a map-task launch: Scarlett only *observes* accesses
// inline; all replication happens at epoch boundaries.
func (s *Scarlett) OnMapTask(node topology.NodeID, b dfs.BlockID, f dfs.FileID, size int64, local bool) {
	// Uniform counter semantics: a repeat access to a file already
	// tallied this epoch refreshes an existing tracked entry; every
	// remote read is uncaptured inline (replication waits for the epoch).
	if s.accesses[f] > 0 {
		s.stats.Refreshes++
	}
	s.accesses[f]++
	if !local {
		s.stats.RemoteSkipped++
	}
}

// Errors returns metadata failures observed while applying plans.
func (s *Scarlett) Errors() []error { return s.errs }

// TotalStats reports the controller's activity counters.
func (s *Scarlett) TotalStats() PolicyStats { return s.stats }

// ExtraNetworkBytes reports the bytes of proactive replica copies — the
// network cost DARE's piggybacking avoids.
func (s *Scarlett) ExtraNetworkBytes() int64 { return s.extraNetworkBytes }

// Rebalance runs one epoch boundary: plan desired replication from the
// epoch's access counts, then converge the placed set toward the plan
// within the budget. Exposed for tests and manual stepping.
//
// The name node is the controller's only record of what it has placed:
// no DARE policy runs beside Scarlett, so every dynamic replica in the
// registry is one this controller placed. A replica lost with its node
// drops out of the count and is placed again.
func (s *Scarlett) Rebalance() {
	if s.nn.Down() || s.nn.Warming() {
		// A crashed master has no replica map and a warming one only part
		// of it; no plan can be made from either. The epoch's tallies
		// carry into the next one.
		return
	}
	type filePop struct {
		id  dfs.FileID
		acc int64
	}
	pops := make([]filePop, 0, len(s.accesses))
	for f, a := range s.accesses {
		if a > 0 {
			pops = append(pops, filePop{f, a})
		}
	}
	sort.Slice(pops, func(i, j int) bool {
		if pops[i].acc != pops[j].acc {
			return pops[i].acc > pops[j].acc
		}
		return pops[i].id < pops[j].id
	})

	// Desired extra replicas per block of each observed file. The grow
	// rule gates whether a file's popularity earns extras at all; the
	// count arithmetic stays native. For the built-in gate
	// (accesses >= AccessesPerReplica) the two tests agree exactly on
	// integer tallies — the rule is the declarative spelling of extra >= 1.
	desired := make(map[dfs.BlockID]int)
	s.growCtx.now = s.now.read()
	for _, fp := range pops {
		s.growCtx.accesses = float64(fp.acc)
		if !s.grow.Eval(&s.growCtx) {
			continue
		}
		extra := int(float64(fp.acc) / s.cfg.AccessesPerReplica)
		if extra > s.cfg.MaxExtraReplicas {
			extra = s.cfg.MaxExtraReplicas
		}
		if extra == 0 {
			continue
		}
		file := s.nn.File(fp.id)
		if file == nil {
			continue
		}
		for _, b := range file.Blocks {
			desired[b] = extra
		}
	}

	// Age out placements no longer desired (or over-desired), blocks in
	// ID order and each block's holders in node order, so runs stay
	// deterministic.
	for id := 0; id < s.nn.Blocks(); id++ {
		b := dfs.BlockID(id)
		victims := s.dynamicHolders(b)
		for _, node := range victims[:max(len(victims)-desired[b], 0)] {
			s.removeReplica(b, node)
		}
	}

	// Grow placements toward the plan, most popular files first, within
	// budget, choosing the least-loaded nodes to smooth hotspots.
	used := s.nn.TotalDynamicBytes()
grow:
	for _, fp := range pops {
		file := s.nn.File(fp.id)
		if file == nil {
			continue
		}
		for _, b := range file.Blocks {
			for have := len(s.dynamicHolders(b)); have < desired[b]; have++ {
				blk := s.nn.Block(b)
				if blk == nil || used+blk.Size > s.budget {
					// Budget exhausted; later (less popular) files wait
					// for a future epoch.
					break grow
				}
				node, ok := s.leastLoadedNodeWithout(b)
				if !ok || !s.addReplica(b, node, blk.Size) {
					break // every node already holds it, or the add failed
				}
				used += blk.Size
			}
		}
	}

	// New epoch: reset the observation window.
	s.accesses = make(map[dfs.FileID]int64)
}

// dynamicHolders lists the nodes holding a dynamic replica of b in node
// order (the registry keeps holder lists node-sorted). The slice is
// scratch that the next call overwrites.
func (s *Scarlett) dynamicHolders(b dfs.BlockID) []topology.NodeID {
	s.holders = s.holders[:0]
	s.nn.ForEachLocation(b, func(node topology.NodeID, kind dfs.ReplicaKind) bool {
		if kind == dfs.Dynamic {
			s.holders = append(s.holders, node)
		}
		return true
	})
	return s.holders
}

// leastLoadedNodeWithout picks the node with the fewest dynamic bytes that
// does not yet hold block b; deterministic tie-break by node ID.
func (s *Scarlett) leastLoadedNodeWithout(b dfs.BlockID) (topology.NodeID, bool) {
	n := s.nn.N()
	best := topology.NodeID(-1)
	var bestLoad int64
	for i := 0; i < n; i++ {
		node := topology.NodeID(i)
		if s.nn.NodeFailed(node) || s.nn.HasReplica(b, node) {
			continue
		}
		load := s.nn.DynamicBytesOn(node)
		if best < 0 || load < bestLoad {
			best, bestLoad = node, load
		}
	}
	return best, best >= 0
}

// addReplica places one proactive copy and reports whether the name node
// took it.
func (s *Scarlett) addReplica(b dfs.BlockID, node topology.NodeID, size int64) bool {
	if err := s.nn.AddDynamicReplica(b, node); err != nil {
		s.errs = append(s.errs, fmt.Errorf("core: scarlett add block %d at node %d: %w", b, node, err))
		return false
	}
	s.stats.ReplicasCreated++
	// Proactive copies move real bytes over the fabric.
	s.extraNetworkBytes += size
	return true
}

func (s *Scarlett) removeReplica(b dfs.BlockID, node topology.NodeID) {
	if err := s.nn.RemoveDynamicReplica(b, node); err != nil {
		s.errs = append(s.errs, fmt.Errorf("core: scarlett remove block %d at node %d: %w", b, node, err))
		return
	}
	s.stats.Evictions++
}
