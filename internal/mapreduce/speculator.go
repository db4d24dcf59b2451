package mapreduce

import (
	"sort"

	"dare/internal/event"
	"dare/internal/policy"
)

// speculator owns speculative execution: it watches task groups, and on
// every Heartbeat event fills map slots the scheduler left idle with
// backup attempts for stragglers (Hadoop's speculative execution, which
// §VI composes with DARE on the noisy EC2 profile). It subscribes to the
// bus rather than being inlined in the tracker's heartbeat loop.
type speculator struct {
	t *Tracker
	// groups holds active attempt groups in creation order, for
	// determinism; findStraggler compacts finished ones as it scans.
	groups   []*taskGroup
	launched int
	// qualify is the declarative straggler gate, lazily compiled from the
	// profile's speculative factor (or replaced via SetSpeculationRule).
	// The built-in is: completed_maps >= 3 AND attempts == 1 AND
	// elapsed > factor × mean_map — the exact historical test.
	qualify policy.Rule
	ctx     specCtx
}

// specCtx exposes one candidate group's signals to the qualify rule:
// "completed_maps" (the job's finished maps, the duration-estimate
// sample), "attempts" (running attempts in the group), "elapsed" (seconds
// since the group started), "mean_map" (the job's mean map duration,
// absent until a map completes), and "now".
type specCtx struct {
	j   *Job
	g   *taskGroup
	now float64
}

// Val implements policy.Context.
func (c *specCtx) Val(key string) (float64, bool) {
	switch key {
	case "completed_maps":
		return float64(c.j.completedMaps), true
	case "attempts":
		return float64(len(c.g.recs)), true
	case "elapsed":
		return c.now - c.g.started, true
	case "mean_map":
		if c.j.completedMaps == 0 {
			return 0, false
		}
		return c.j.mapTimeSum / float64(c.j.completedMaps), true
	case "now":
		return c.now, true
	}
	return 0, false
}

// SetSpeculationRule replaces the straggler-qualification rule (from a
// -policy-file config). Call before Run.
func (t *Tracker) SetSpeculationRule(r policy.Rule) { t.spec.qualify = r }

// observe registers a new attempt group for straggler tracking. It is a
// direct call from launchMap, not an event reaction: groups are live
// pointers that cannot ride a scalar event.
func (s *speculator) observe(g *taskGroup) {
	if s.t.c.Profile.SpeculativeExecution {
		s.groups = append(s.groups, g)
	}
}

// Kinds implements event.KindFilter: the speculator hears heartbeats, and
// nothing at all when speculation is off.
func (s *speculator) Kinds() []event.Kind {
	if !s.t.c.Profile.SpeculativeExecution {
		return nil
	}
	return []event.Kind{event.Heartbeat}
}

// HandleEvent implements event.Subscriber: at each heartbeat, launch
// backup attempts while the node has idle map slots and stragglers exist.
func (s *speculator) HandleEvent(ev event.Event) {
	if ev.Kind != event.Heartbeat || !s.t.c.Profile.SpeculativeExecution {
		return
	}
	node := s.t.c.Nodes[ev.Node]
	for node.FreeMapSlots > 0 {
		g := s.findStraggler(node)
		if g == nil {
			break
		}
		s.launched++
		sp := event.New(event.TaskSpeculate)
		sp.Job = int32(g.job.Spec.ID)
		sp.Block = int64(g.block)
		sp.Node = ev.Node
		sp.Rack = ev.Rack
		s.t.bus.Publish(sp)
		s.t.launchAttempt(node, g)
	}
}

// findStraggler returns the oldest running map-task group that qualifies
// for a speculative backup on node, compacting finished groups as it
// scans.
func (s *speculator) findStraggler(node *Node) *taskGroup {
	if s.qualify == nil {
		rule, err := policy.DefaultSpeculation(s.t.c.Profile.SpeculativeFactor).Compile(0)
		if err != nil {
			panic("mapreduce: built-in speculation rule: " + err.Error())
		}
		s.qualify = rule
	}
	s.ctx.now = s.t.c.Eng.Now()
	kept := s.groups[:0]
	var found *taskGroup
	for _, g := range s.groups {
		if g.done || len(g.recs) == 0 {
			continue // completed, or all attempts died with the node
		}
		kept = append(kept, g)
		if found != nil {
			continue
		}
		s.ctx.j, s.ctx.g = g.job, g
		if !s.qualify.Eval(&s.ctx) {
			continue
		}
		onThisNode := false
		for r := range g.recs {
			if r.node == node {
				onThisNode = true
			}
		}
		if !onThisNode {
			found = g
		}
	}
	s.groups = kept
	return found
}

// killSiblings cancels any backup attempt still running after g's winning
// attempt completed (at most one backup; sorted iteration for determinism
// regardless).
func (s *speculator) killSiblings(g *taskGroup) {
	if len(g.recs) == 0 {
		return
	}
	siblings := make([]*taskRec, 0, len(g.recs))
	for r := range g.recs {
		siblings = append(siblings, r)
	}
	sort.Slice(siblings, func(i, j int) bool { return siblings[i].node.ID < siblings[j].node.ID })
	for _, r := range siblings {
		s.t.c.Eng.Cancel(r.ev)
		s.t.untrack(r.node, r)
		r.node.FreeMapSlots++
		g.job.runningMaps--
		delete(g.recs, r)
	}
}

// SpeculativeLaunches reports how many backup attempts were started.
func (t *Tracker) SpeculativeLaunches() int { return t.spec.launched }
