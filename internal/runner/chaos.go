package runner

import (
	"dare/internal/chaos"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/stats"
	"dare/internal/topology"
)

// ChaosSpec configures the gray-failure scenario generator
// (internal/chaos): Events injections drawn over Horizon, split among
// crashes, slow/disk degradations, silent block corruptions, and
// false-dead flaps by the class weights. Zero-valued fields fall back to
// DefaultChaosSpec; a negative weight disables its class.
type ChaosSpec struct {
	// Events is the number of injections to draw.
	Events int
	// Horizon bounds injection; <= 0 uses the workload's arrival span.
	Horizon float64
	// CrashWeight, SlowWeight, CorruptWeight, and FlapWeight set the
	// relative class frequencies (0 = default, negative = disable).
	CrashWeight, SlowWeight, CorruptWeight, FlapWeight float64
	// MTTR is the mean crash downtime; SlowMean the mean degradation
	// episode; SlowFactorMax the degradation multiplier bound; FlapDown
	// the mean false-dead window.
	MTTR, SlowMean, SlowFactorMax, FlapDown float64
	// HedgeTimeout is the remote-read duration that triggers a hedged
	// second fetch; 0 uses 3x the heartbeat interval, negative disables
	// hedging.
	HedgeTimeout float64
	// MasterWeight sets the master-crash class frequency. Unlike the node
	// classes it defaults to 0 — chaos never takes the control plane down
	// unless explicitly asked (existing scenarios stay byte-identical).
	MasterWeight float64
	// MasterDown is the mean control-plane outage length; 0 defaults to a
	// sixteenth of the span when MasterWeight > 0.
	MasterDown float64
	// MasterRecovery selects the rebuild mode for chaos-driven outages:
	// "journal" (default) or "report".
	MasterRecovery string
}

// DefaultChaosSpec scales a chaos scenario to an arrival span: 16
// injections with corruption and degradation slightly favored over clean
// crashes (matching the gray-failure literature's observation that partial
// failures outnumber fail-stops), downtime a sixteenth of the span,
// degradation episodes an eighth, flap windows a fortieth.
func DefaultChaosSpec(span float64) ChaosSpec {
	return ChaosSpec{
		Events:        16,
		Horizon:       span,
		CrashWeight:   1,
		SlowWeight:    1.5,
		CorruptWeight: 1.5,
		FlapWeight:    1,
		MTTR:          span / 16,
		SlowMean:      span / 8,
		SlowFactorMax: 6,
		FlapDown:      span / 40,
	}
}

// resolve fills a spec's zero-valued fields from the span defaults and
// maps negative weights to zero (class disabled).
func (s ChaosSpec) resolve(span float64) ChaosSpec {
	def := DefaultChaosSpec(span)
	if s.Events == 0 {
		s.Events = def.Events
	}
	if s.Horizon <= 0 {
		s.Horizon = def.Horizon
	}
	fill := func(v, d float64) float64 {
		if v == 0 {
			return d
		}
		if v < 0 {
			return 0
		}
		return v
	}
	s.CrashWeight = fill(s.CrashWeight, def.CrashWeight)
	s.SlowWeight = fill(s.SlowWeight, def.SlowWeight)
	s.CorruptWeight = fill(s.CorruptWeight, def.CorruptWeight)
	s.FlapWeight = fill(s.FlapWeight, def.FlapWeight)
	if s.MTTR <= 0 {
		s.MTTR = def.MTTR
	}
	if s.SlowMean <= 0 {
		s.SlowMean = def.SlowMean
	}
	if s.SlowFactorMax <= 0 {
		s.SlowFactorMax = def.SlowFactorMax
	}
	if s.FlapDown <= 0 {
		s.FlapDown = def.FlapDown
	}
	// MasterWeight deliberately skips the zero-fills-default pattern: its
	// default IS zero (disabled), so only the negative sentinel maps down.
	if s.MasterWeight < 0 {
		s.MasterWeight = 0
	}
	if s.MasterWeight > 0 && s.MasterDown <= 0 {
		s.MasterDown = span / 16
	}
	return s
}

// wireChaos generates the seeded chaos scenario for opts and registers
// every action with the tracker, enabling the integrity-aware read path.
// The scenario stream (0xCA05) and the gray-read stream (0x6A47) are
// split from the run seed independently of every other stream, so adding
// chaos perturbs nothing else and two same-seed chaos runs are
// byte-identical.
func wireChaos(tracker *mapreduce.Tracker, opts Options) error {
	cs := opts.Chaos.resolve(span(opts.Workload))
	spec := chaos.Spec{
		Events:        cs.Events,
		Horizon:       cs.Horizon,
		CrashWeight:   cs.CrashWeight,
		SlowWeight:    cs.SlowWeight,
		CorruptWeight: cs.CorruptWeight,
		FlapWeight:    cs.FlapWeight,
		MTTR:          cs.MTTR,
		SlowMean:      cs.SlowMean,
		SlowFactorMax: cs.SlowFactorMax,
		FlapDown:      cs.FlapDown,
		MasterWeight:  cs.MasterWeight,
		MasterDown:    cs.MasterDown,
	}
	masterMode, err := dfs.RecoveryModeFromString(cs.MasterRecovery)
	if err != nil {
		return err
	}
	actions, err := chaos.Generate(opts.Profile.Slaves, spec, stats.NewRNG(opts.Seed).Split(0xCA05))
	if err != nil {
		return err
	}
	hb := opts.Profile.HeartbeatInterval
	hedge := cs.HedgeTimeout
	if hedge == 0 {
		hedge = 3 * hb
	}
	tracker.EnableGrayReads(hedge, hb/2, 4*hb, stats.NewRNG(opts.Seed).Split(0x6A47))
	for _, a := range actions {
		switch a.Kind {
		case chaos.Crash:
			tracker.ScheduleNodeFailure(topology.NodeID(a.Node), a.At)
		case chaos.Recover:
			tracker.ScheduleNodeRecovery(topology.NodeID(a.Node), a.At)
		case chaos.Slow:
			tracker.ScheduleNodeDegrade(topology.NodeID(a.Node), a.Factor, a.Disk, a.At)
		case chaos.Restore:
			tracker.ScheduleNodeRestore(topology.NodeID(a.Node), a.At)
		case chaos.Corrupt:
			tracker.ScheduleRandomCorruption(a.At)
		case chaos.Flap:
			tracker.ScheduleNodeFlap(topology.NodeID(a.Node), a.At, a.Down)
		case chaos.MasterCrash:
			tracker.ScheduleMasterOutage(a.At, a.Down, masterMode)
		}
	}
	return nil
}
