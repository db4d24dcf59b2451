package mapreduce

import (
	"fmt"
	"math"
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

// ForceLinearScan routes every job's block selection through the linear
// scan for the rest of the test, so a run can be replayed on the
// reference the inverted locality index must match.
func ForceLinearScan(t testing.TB) {
	prev := indexMinMaps
	indexMinMaps = math.MaxInt
	t.Cleanup(func() { indexMinMaps = prev })
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

// HideComponentKinds registers the tracker's bus components without their
// kind filters for the rest of the test, so every component hears every
// kind and filters it in HandleEvent, as on a broadcast bus: the
// reference the per-kind dispatch must match.
func HideComponentKinds(t testing.TB) {
	prev := subscribe
	subscribe = func(b *event.Bus, s event.Subscriber) { b.Subscribe(struct{ event.Subscriber }{s}) }
	t.Cleanup(func() { subscribe = prev })
}

// CountComponentEvents makes every tracker component registered for the
// rest of the test tally the events the bus delivers to it, under its own
// kind filter, which every component must declare. The tallies are keyed
// by the component's type name.
func CountComponentEvents(t testing.TB) map[string]*event.Counts {
	heard := make(map[string]*event.Counts)
	prev := subscribe
	subscribe = func(b *event.Bus, s event.Subscriber) {
		f, ok := s.(event.KindFilter)
		if !ok {
			t.Fatalf("%T declares no kinds", s)
		}
		c := &countedComponent{Subscriber: s, kinds: f.Kinds(), counts: new(event.Counts)}
		heard[fmt.Sprintf("%T", s)] = c.counts
		b.Subscribe(c)
	}
	t.Cleanup(func() { subscribe = prev })
	return heard
}

// countedComponent tallies what the bus delivers to a component.
type countedComponent struct {
	event.Subscriber
	kinds  []event.Kind
	counts *event.Counts
}

func (c *countedComponent) Kinds() []event.Kind { return c.kinds }

func (c *countedComponent) HandleEvent(ev event.Event) {
	c.counts[ev.Kind]++
	c.Subscriber.HandleEvent(ev)
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
