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
// crashes, slow/disk degradations, silent block corruptions, false-dead
// flaps and (only when MasterWeight > 0) master crashes by the class
// weights. Zero-valued fields fall back to DefaultChaosSpec; a negative
// weight disables its class. HedgeTimeout 0 uses 3x the heartbeat
// interval and a negative one disables hedging; MasterDown 0 defaults to
// a sixteenth of the span when MasterWeight > 0; MasterRecovery ""
// means "journal".
type ChaosSpec = chaos.Spec

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

// resolveChaos fills a spec's zero-valued fields from the span defaults
// and maps negative weights to zero (class disabled).
func resolveChaos(s ChaosSpec, span float64) ChaosSpec {
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
	cs := resolveChaos(*opts.Chaos, span(opts.Workload))
	masterMode, err := dfs.RecoveryModeFromString(cs.MasterRecovery)
	if err != nil {
		return err
	}
	actions, err := chaos.Generate(opts.Profile.Slaves, cs, stats.NewRNG(opts.Seed).Split(0xCA05))
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
