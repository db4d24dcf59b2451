// Package chaos generates seeded randomized gray-failure scenarios: a mix
// of clean crashes, slow/disk-degraded nodes, silent block corruption, and
// false-dead flaps, drawn from one RNG stream so the same seed always
// yields the same schedule. It is the scenario half of the chaos harness;
// internal/runner wires the schedule into a tracker and runs the
// cross-layer invariant checker after every injected event.
//
// The generator deliberately spans every failure class the simulator
// models (see DESIGN.md's failure taxonomy): crashes exercise the kill /
// requeue / repair path, degradations exercise delay scheduling and the
// speculator, corruption exercises the integrity-aware read path, and
// flaps exercise stale-replica reconciliation on re-registration.
package chaos

import (
	"fmt"
	"sort"

	"dare/internal/stats"
)

// Kind tags one scheduled chaos action.
type Kind int

const (
	// Crash kills a node cleanly (heartbeat stops, replicas scrubbed).
	Crash Kind = iota
	// Recover rejoins a crashed node empty (HDFS re-registration).
	Recover
	// Slow degrades a node's service or disk by Action.Factor.
	Slow
	// Restore ends a node's degradation.
	Restore
	// Corrupt silently corrupts one replica of a random block.
	Corrupt
	// Flap falsely declares a live node dead for Action.Down seconds; it
	// rejoins with its disk intact and reconciles stale replicas.
	Flap
	// MasterCrash takes the control plane down for Action.Down seconds:
	// heartbeats go unanswered, metadata freezes, and recovery replays the
	// journal (or warms from block reports). Node is -1.
	MasterCrash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Slow:
		return "slow"
	case Restore:
		return "restore"
	case Corrupt:
		return "corrupt"
	case Flap:
		return "flap"
	case MasterCrash:
		return "master-crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Action is one scheduled chaos injection. Node is -1 for Corrupt (the
// victim block is drawn at fire time from the gray RNG, so identical
// schedules hit identical blocks across policy arms).
type Action struct {
	At   float64
	Kind Kind
	Node int
	// Factor is the degradation multiplier for Slow (> 1).
	Factor float64
	// Disk marks a Slow action as disk degradation (bandwidth divider)
	// rather than service-time degradation.
	Disk bool
	// Down is the false-dead window for Flap, or the outage length for
	// MasterCrash.
	Down float64
}

// Spec parameterizes a chaos scenario. Generate reads every field but
// HedgeTimeout and MasterRecovery, which configure how a run wires the
// scenario into its tracker. The field order is the order of a run
// spec's "chaos" keys.
type Spec struct {
	// Events is the number of chaos injections to draw (paired Recover /
	// Restore actions do not count toward it).
	Events int
	// Horizon bounds injection: no action starts at or past it.
	Horizon float64
	// CrashWeight, SlowWeight, CorruptWeight, and FlapWeight set the
	// relative frequency of each node failure class; a zero weight
	// disables the class. At least one class weight, MasterWeight
	// included, must be positive.
	CrashWeight, SlowWeight, CorruptWeight, FlapWeight float64
	// MTTR is the mean downtime after a crash (exponential); <= 0 makes
	// crashes permanent.
	MTTR float64
	// SlowMean is the mean degradation episode length (exponential).
	SlowMean float64
	// SlowFactorMax bounds the degradation multiplier, drawn uniformly
	// from (2, SlowFactorMax]. Values <= 2 pin the factor at 2.
	SlowFactorMax float64
	// FlapDown is the mean false-dead window (exponential).
	FlapDown float64
	// HedgeTimeout is the remote-read duration that triggers a hedged
	// second fetch.
	HedgeTimeout float64
	// MasterWeight sets the master-crash class frequency; it requires
	// the tracker to have master recovery enabled.
	MasterWeight float64
	// MasterDown is the mean control-plane outage length (exponential);
	// required > 0 when MasterWeight is positive. Outages never overlap:
	// the class is infeasible while a previous outage is still open.
	MasterDown float64
	// MasterRecovery selects how the name node rebuilds after a
	// chaos-driven outage: "journal" or "report".
	MasterRecovery string
}

// Validate reports a specification error, if any.
func (s Spec) Validate() error {
	switch {
	case s.Events < 0:
		return fmt.Errorf("chaos: Events must be >= 0, got %d", s.Events)
	case s.Horizon <= 0 && s.Events > 0:
		return fmt.Errorf("chaos: Horizon must be > 0, got %v", s.Horizon)
	case s.CrashWeight < 0 || s.SlowWeight < 0 || s.CorruptWeight < 0 || s.FlapWeight < 0 || s.MasterWeight < 0:
		return fmt.Errorf("chaos: class weights must be >= 0")
	case s.Events > 0 && s.CrashWeight+s.SlowWeight+s.CorruptWeight+s.FlapWeight+s.MasterWeight <= 0:
		return fmt.Errorf("chaos: at least one class weight must be positive")
	case s.MasterWeight > 0 && s.MasterDown <= 0:
		return fmt.Errorf("chaos: MasterWeight > 0 requires MasterDown > 0, got %v", s.MasterDown)
	case s.MTTR < 0:
		return fmt.Errorf("chaos: MTTR must be >= 0, got %v", s.MTTR)
	case s.SlowMean < 0:
		return fmt.Errorf("chaos: SlowMean must be >= 0, got %v", s.SlowMean)
	case s.FlapDown < 0:
		return fmt.Errorf("chaos: FlapDown must be >= 0, got %v", s.FlapDown)
	}
	return nil
}

// nodeState tracks one node through scenario generation so victims are
// always feasible: crashes and flaps only hit up nodes (never the last
// one), degradations only hit up, not-currently-degraded nodes.
type nodeState struct {
	downUntil float64
	slowUntil float64
}

// Generate draws a chaos scenario for a cluster of n nodes. It walks the
// same up/down bookkeeping as the churn generator — a victim is always in
// a state where the injection is meaningful at its fire time, and at least
// one node stays up at every instant. Actions are returned sorted by time.
func Generate(n int, spec Spec, rng *stats.RNG) ([]Action, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || spec.Events == 0 {
		return nil, nil
	}
	nodes := make([]nodeState, n)
	gap := spec.Horizon / float64(spec.Events) // mean inter-injection gap
	var actions []Action
	t := 0.0
	masterDownUntil := 0.0
	for drawn := 0; drawn < spec.Events; drawn++ {
		t += rng.ExpFloat64() * gap
		if t >= spec.Horizon {
			break
		}
		kind, ok := pickKind(spec, nodes, masterDownUntil, t, rng)
		if !ok {
			continue // no class is feasible at this instant
		}
		switch kind {
		case Crash:
			v := pickUp(nodes, t, rng)
			actions = append(actions, Action{At: t, Kind: Crash, Node: v})
			if spec.MTTR > 0 {
				r := t + rng.ExpFloat64()*spec.MTTR
				nodes[v].downUntil = r
				actions = append(actions, Action{At: r, Kind: Recover, Node: v})
			} else {
				nodes[v].downUntil = inf
			}
		case Slow:
			v := pickUpNotSlow(nodes, t, rng)
			factor := 2.0
			if spec.SlowFactorMax > 2 {
				factor += rng.Float64() * (spec.SlowFactorMax - 2)
			}
			disk := rng.Float64() < 0.5
			end := t + rng.ExpFloat64()*spec.SlowMean
			nodes[v].slowUntil = end
			actions = append(actions, Action{At: t, Kind: Slow, Node: v, Factor: factor, Disk: disk})
			actions = append(actions, Action{At: end, Kind: Restore, Node: v})
		case Corrupt:
			actions = append(actions, Action{At: t, Kind: Corrupt, Node: -1})
		case Flap:
			v := pickUp(nodes, t, rng)
			down := rng.ExpFloat64() * spec.FlapDown
			if down <= 0 {
				down = spec.FlapDown
			}
			nodes[v].downUntil = t + down
			actions = append(actions, Action{At: t, Kind: Flap, Node: v, Down: down})
		case MasterCrash:
			down := rng.ExpFloat64() * spec.MasterDown
			if down <= 0 {
				down = spec.MasterDown
			}
			masterDownUntil = t + down
			actions = append(actions, Action{At: t, Kind: MasterCrash, Node: -1, Down: down})
		}
	}
	// Paired Recover/Restore actions were appended out of order; sort by
	// time with a total (Kind, Node) tie-break so the schedule is
	// deterministic even under (measure-zero) time ties.
	sort.Slice(actions, func(i, j int) bool {
		a, b := actions[i], actions[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
	return actions, nil
}

const inf = 1e308

// pickKind draws a failure class among those feasible at time t, weighted
// by the spec. Crash and Flap need at least two up nodes (never take the
// last one down); Slow needs an up, not-currently-degraded node; Corrupt
// is always feasible; MasterCrash needs the previous outage to have ended
// (a single master cannot crash twice concurrently).
func pickKind(spec Spec, nodes []nodeState, masterDownUntil, t float64, rng *stats.RNG) (Kind, bool) {
	upCount, slowable := 0, 0
	for _, ns := range nodes {
		if ns.downUntil <= t {
			upCount++
			if ns.slowUntil <= t {
				slowable++
			}
		}
	}
	type cand struct {
		kind Kind
		w    float64
	}
	var cands []cand
	if spec.CrashWeight > 0 && upCount > 1 {
		cands = append(cands, cand{Crash, spec.CrashWeight})
	}
	if spec.SlowWeight > 0 && slowable > 0 {
		cands = append(cands, cand{Slow, spec.SlowWeight})
	}
	if spec.CorruptWeight > 0 {
		cands = append(cands, cand{Corrupt, spec.CorruptWeight})
	}
	if spec.FlapWeight > 0 && upCount > 1 {
		cands = append(cands, cand{Flap, spec.FlapWeight})
	}
	if spec.MasterWeight > 0 && masterDownUntil <= t {
		cands = append(cands, cand{MasterCrash, spec.MasterWeight})
	}
	if len(cands) == 0 {
		return 0, false
	}
	total := 0.0
	for _, c := range cands {
		total += c.w
	}
	x := rng.Float64() * total
	for _, c := range cands {
		if x < c.w {
			return c.kind, true
		}
		x -= c.w
	}
	return cands[len(cands)-1].kind, true
}

// pickUp draws a uniformly random up node at time t. Callers guarantee at
// least two exist.
func pickUp(nodes []nodeState, t float64, rng *stats.RNG) int {
	up := make([]int, 0, len(nodes))
	for i, ns := range nodes {
		if ns.downUntil <= t {
			up = append(up, i)
		}
	}
	return up[rng.Intn(len(up))]
}

// pickUpNotSlow draws a uniformly random up, not-degraded node at time t.
// Callers guarantee one exists.
func pickUpNotSlow(nodes []nodeState, t float64, rng *stats.RNG) int {
	ok := make([]int, 0, len(nodes))
	for i, ns := range nodes {
		if ns.downUntil <= t && ns.slowUntil <= t {
			ok = append(ok, i)
		}
	}
	return ok[rng.Intn(len(ok))]
}
