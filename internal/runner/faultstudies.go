package runner

import (
	"fmt"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// The robustness studies: the paper's §IV-B remark that DARE replicas are
// first-order replicas that "also contribute to increasing availability
// of the data in the presence of failures", measured after a one-shot
// kill, under stochastic churn, under gray failures, and across master
// outages.

// faultProfile is the multi-rack CCT layout the churn, chaos, failover
// and event studies share: racks of 5 so rack-correlated failures have
// victims and survivors, replication factor 2 so failures can lose blocks.
func faultProfile() *config.Profile {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	return profile
}

// faultWL1 is wl1 at the fault studies' default scale of 300 jobs.
func faultWL1(p Params) *workload.Workload {
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = 300
	}
	return truncate(workload.WL1(p.Seed), jobs)
}

// schedPolicyArms crosses both schedulers with vanilla, DARE-LRU and
// ElephantTrap, each arm running base with its scheduler and policy.
func schedPolicyArms(base Options) []arm {
	var arms []arm
	for _, sched := range []string{"fifo", "fair"} {
		for _, kind := range EvaluatedPolicies {
			opts := base
			opts.Scheduler, opts.Policy = sched, PolicyFor(kind)
			arms = append(arms, arm{[]any{sched, kind.String()}, opts})
		}
	}
	return arms
}

var availabilityCols = []Column{
	{"policy", "%-14s"}, {"failed", "%7d"}, {"block-avail", "%12.4f"},
	{"weighted-avail", "%15.4f"}, {"dyn-replicas", "%13d"},
}

// availabilityFailures is the size of the availability study's failure
// batch.
const availabilityFailures = 4

// availability runs wl1 under vanilla and DARE, kills four nodes at 60%
// of the arrival span (repairs disabled, so the pre-repair window is what
// is measured), and reports the fraction of blocks — and of
// access-weighted data — still readable, plus the dynamic replicas alive
// at failure time. With replication factor 2 the failure batch actually
// bites; factor 3 on a 19-node cluster would need 3 co-located failures
// to lose anything.
func availability(p Params) (*Table, error) {
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = 500
	}
	wl := truncate(workload.WL1(p.Seed), jobs)
	t := &Table{Cols: availabilityCols, Rows: make([][]any, len(EvaluatedPolicies)),
		Note: "(replication factor 2; failures at 60% of the arrival span, repairs disabled)\n"}
	err := forEachIndex(len(EvaluatedPolicies), func(i int) error {
		row, err := availabilityRun(wl, EvaluatedPolicies[i], p)
		if err != nil {
			return fmt.Errorf("runner: availability/%s: %w", EvaluatedPolicies[i], err)
		}
		t.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func availabilityRun(wl *workload.Workload, kind core.PolicyKind, p Params) ([]any, error) {
	set, err := config.BuiltinPolicy(kind.String())
	if err != nil {
		return nil, err
	}
	profile := config.CCT()
	profile.ReplicationFactor = 2
	// Fail a deterministic batch at 60% of the arrival span, after DARE
	// has spread replicas; repairs disabled to observe the raw exposure.
	failAt := span(wl) * 0.6
	perm := stats.NewRNG(p.Seed).Split(0xDEAD).Perm(profile.Slaves)
	var failures []NodeFailure
	for i := 0; i < availabilityFailures && i < len(perm); i++ {
		failures = append(failures, NodeFailure{Node: perm[i], At: failAt + 0.01*float64(i)})
	}
	rs, err := newRunState(Options{Profile: profile, Workload: wl, Scheduler: "fifo", PolicySet: set, Seed: p.Seed,
		Failures: failures, DisableRepair: true, CheckInvariants: p.Check})
	if err != nil {
		return nil, err
	}

	// Capture the dynamic-replica census just before the failure.
	var dynAtFailure int64
	rs.cluster.Eng.At(failAt-1e-6, func() {
		dynAtFailure = countDynamic(rs.cluster.NN)
	})
	if _, err := rs.run(); err != nil {
		return nil, err
	}

	nn := rs.cluster.NN
	avail, total := nn.Availability()
	weights := nn.BlockWeights(rs.tracker.Files(), rs.blockPop)
	return []any{kind.String(), availabilityFailures, float64(avail) / float64(total),
		nn.WeightedAvailability(weights), dynAtFailure}, nil
}

func countDynamic(nn *dfs.NameNode) int64 {
	var total int64
	for n := 0; n < nn.N(); n++ {
		node := topology.NodeID(n)
		for _, b := range nn.NodeBlocks(node, 0, dfs.BlockID(nn.Blocks())) {
			if k, ok := nn.ReplicaKindAt(b, node); ok && k == dfs.Dynamic {
				total++
			}
		}
	}
	return total
}

// DefaultChurnSpec scales churn to an arrival span: roughly eight
// single-node failures across the cluster over the span, mean downtime a
// twenty-fourth of the span, and a 15% chance any failure is a whole rack.
// Aggressive enough that blocks get lost before repair lands (the
// availability comparison has signal), mild enough that repairs mostly
// keep up and the workload still completes.
func DefaultChurnSpec(span float64, nodes int) ChurnSpec {
	return ChurnSpec{
		MTTF:         span * float64(nodes) / 8,
		MTTR:         span / 24,
		RackFailProb: 0.15,
		Horizon:      span,
	}
}

var churnCols = []Column{
	{"sched", "%-6s"}, {"policy", "%-14s"}, {"fails", "%6d"}, {"racks", "%6d"},
	{"rejoin", "%6d"}, {"repairs", "%8d"}, {"backlog", "%8d"}, {"lost", "%6d"},
	{"mean-avail", "%11.4f"}, {"final-avail", "%11.4f"}, {"slowdown", "%9.2f"}, {"failed", "%7d"},
}

// churnStudy runs wl1 under a seeded stochastic churn schedule for both
// schedulers × {vanilla, DARE-LRU, ElephantTrap} and reports weighted
// availability, repair backlog, and job slowdown per arm. Repairs are
// enabled: what is measured is the exposure between failure and heal,
// plus permanent losses. A non-positive field of p.Churn falls back to
// DefaultChurnSpec.
func churnStudy(p Params) (*Table, error) {
	wl := faultWL1(p)
	profile := faultProfile()
	spec, def := p.Churn, DefaultChurnSpec(span(wl), profile.Slaves)
	if spec.MTTF <= 0 {
		spec.MTTF = def.MTTF
	}
	if spec.MTTR <= 0 {
		spec.MTTR = def.MTTR
	}
	if spec.RackFailProb <= 0 {
		spec.RackFailProb = def.RackFailProb
	}
	if spec.Horizon <= 0 {
		spec.Horizon = def.Horizon
	}
	arms := schedPolicyArms(Options{Profile: profile, Workload: wl, Seed: p.Seed, Churn: &spec, CheckInvariants: p.Check})
	return perArm("churn", arms, churnCols,
		"(racks of 5, replication factor 2, repairs enabled; availability weighted by block access count)\n",
		churnCells)
}

// churnCells reduces one churn run: node-down events (a rack failure
// counts one per victim), rack-switch events, rejoins, repairs, the
// deepest repair backlog seen at any churn event, blocks left with zero
// replicas, mean and final access-weighted availability, slowdown, and
// failed jobs.
func churnCells(_ int, out *Output) []any {
	maxBacklog, rackFailures := 0, 0
	racks := make(map[float64]map[int]bool)
	for _, ev := range out.FailureEvents {
		if ev.Rack >= 0 {
			if racks[ev.Time] == nil {
				racks[ev.Time] = make(map[int]bool)
			}
			racks[ev.Time][ev.Rack] = true
		}
		maxBacklog = max(maxBacklog, ev.Backlog)
	}
	for _, at := range racks {
		rackFailures += len(at)
	}
	for _, ev := range out.RecoveryEvents {
		maxBacklog = max(maxBacklog, ev.Backlog)
	}
	final, lost := 1.0, 0
	if n := len(out.FailureEvents); n > 0 {
		last := out.FailureEvents[n-1]
		final = last.WeightedAvailability
		lost = last.TotalBlocks - last.AvailableBlocks
	}
	return []any{len(out.FailureEvents), rackFailures, len(out.RecoveryEvents), out.RepairsDone,
		maxBacklog, lost, timeAveragedAvailability(out.FailureEvents, out.Summary.Makespan),
		final, out.Summary.MeanSlowdown, out.Summary.FailedJobs}
}

// timeAveragedAvailability integrates the weighted-availability step
// function from t=0 (availability 1) through the failure events to end.
// Rejoins are empty and repairs only copy blocks that still have a live
// replica, so under vanilla it is monotone non-increasing; under DARE a
// remote read in flight when the last source died still completes and
// captures a dynamic replica, so a lost block can re-materialize.
func timeAveragedAvailability(evs []mapreduce.FailureEvent, end float64) float64 {
	cur, last, acc := 1.0, 0.0, 0.0
	for _, ev := range evs {
		if ev.Time >= end {
			break
		}
		acc += cur * (ev.Time - last)
		cur, last = ev.WeightedAvailability, ev.Time
	}
	if end <= last {
		return cur
	}
	acc += cur * (end - last)
	if end <= 0 {
		return cur
	}
	return acc / end
}

var chaosCols = []Column{
	{"sched", "%-6s"}, {"policy", "%-14s"}, {"crash", "%6d"}, {"flap", "%5d"},
	{"degrade", "%8d"}, {"corrupt", "%8d"}, {"detect", "%8d"}, {"retry", "%7d"},
	{"hedge", "%6d"}, {"restore", "%8d"}, {"repair", "%7d"}, {"gmtt", "%7.2f"},
	{"locality", "%9.3f"}, {"mean-avail", "%11.4f"}, {"failed", "%7d"},
}

// chaosStudy runs wl1 under one seeded gray-failure scenario for both
// schedulers × {vanilla, DARE-LRU, ElephantTrap}, speculation on so
// degraded nodes are speculated around. Every arm sees the identical
// injection schedule — the generator draws from its own seed stream — so
// differences are attributable to the replication policy: the DARE arms'
// extra replicas should buy locality and availability headroom, and
// corrupt-replica quarantines bite them less, because a quarantined block
// usually still has a dynamic copy. Rows count real crashes (flaps
// excluded), false-dead flaps, slow/disk degradations, silent corruptions
// injected and caught, corrupt-read retries, hedged reads, stale replicas
// reconciled on flap rejoins and repairs, then GMTT, locality,
// time-averaged access-weighted availability and failed jobs.
func chaosStudy(p Params) (*Table, error) {
	profile := faultProfile()
	profile.SpeculativeExecution = true
	spec := p.Chaos
	arms := schedPolicyArms(Options{Profile: profile, Workload: faultWL1(p), Seed: p.Seed, Chaos: &spec, CheckInvariants: p.Check})
	return perArm("chaos", arms, chaosCols,
		"(identical seeded chaos schedule per arm: crashes, slow/disk nodes, silent corruption, false-dead flaps;\n"+
			" racks of 5, replication factor 2, speculation on, hedged reads at 3x heartbeat)\n",
		func(_ int, out *Output) []any {
			g := out.Gray
			return []any{len(out.FailureEvents) - g.Flaps, g.Flaps, g.Degrades, g.CorruptionsInjected,
				g.CorruptionsDetected, g.ReadRetries, g.HedgedReads, g.ReplicasRestored, out.RepairsDone,
				out.Summary.GMTT, out.Summary.JobLocality,
				timeAveragedAvailability(out.FailureEvents, out.Summary.Makespan), out.Summary.FailedJobs}
		})
}

var failoverCols = []Column{
	{"policy", "%-14s"}, {"mode", "%-8s"}, {"outages", "%7d"}, {"downtime", "%9.2f"},
	{"warmup", "%7.2f"}, {"reports", "%8d"}, {"hb-defer", "%8d"}, {"rd-defer", "%7d"},
	{"killed", "%7d"}, {"ckpts", "%6d"}, {"master-avail", "%12.4f"}, {"gmtt", "%8.2f"}, {"failed", "%7d"},
}

// failoverStudy (A17) crashes the master (name node + job tracker) twice,
// at 25% and 60% of the arrival span and each a sixteenth of the span
// long, for fifo × {vanilla, ElephantTrap} × {journal, report}. Journal
// arms recover by checkpoint + edit-log replay (instant full view);
// report arms start cold and warm from per-node block reports over the
// next heartbeat interval. Rows report the outage count, downtime and
// warm-up, reports delivered, work deferred while down, attempts killed,
// journal checkpoints, time-averaged master availability, GMTT and failed
// jobs.
func failoverStudy(p Params) (*Table, error) {
	wl := faultWL1(p)
	s := span(wl)
	var arms []arm
	for _, kind := range []core.PolicyKind{core.NonePolicy, core.ElephantTrapPolicy} {
		for _, mode := range []string{"journal", "report"} {
			arms = append(arms, arm{[]any{kind.String(), mode}, Options{
				Profile: faultProfile(), Workload: wl, Scheduler: "fifo", Policy: PolicyFor(kind), Seed: p.Seed,
				MasterOutages: []MasterOutage{
					{At: 0.25 * s, Down: s / 16, Mode: mode},
					{At: 0.60 * s, Down: s / 16, Mode: mode},
				},
				CheckInvariants: p.Check,
			}})
		}
	}
	return perArm("failover", arms, failoverCols,
		"(identical master-outage schedule per arm: crashes at 25% and 60% of the arrival span, each span/16 long;\n"+
			" journal = checkpoint+replay recovery, report = cold start warmed by per-node block reports;\n"+
			" racks of 5, replication factor 2, fifo)\n",
		func(_ int, out *Output) []any {
			m := out.Master
			return []any{m.Outages, m.Downtime, m.WarmupTime, m.BlockReports, m.DeferredHeartbeats,
				m.DeferredReads, m.KilledMaps + m.KilledReduces, m.JournalCheckpoints,
				masterAvailability(out.MasterEvents, out.Summary.Makespan), out.Summary.GMTT, out.Summary.FailedJobs}
		})
}

// masterAvailability integrates the master's access-weighted availability
// samples into a time average over [0, makespan]: full knowledge (1.0)
// until the first event, zero while down, and the sampled warming-curve
// value after each recovery or block report.
func masterAvailability(events []mapreduce.MasterEvent, makespan float64) float64 {
	if makespan <= 0 {
		return 1
	}
	cur, last, acc := 1.0, 0.0, 0.0
	for _, e := range events {
		t := e.Time
		if t > makespan {
			t = makespan
		}
		if t > last {
			acc += cur * (t - last)
			last = t
		}
		switch e.Kind {
		case mapreduce.MasterWentDown:
			cur = 0
		case mapreduce.MasterCameBack, mapreduce.MasterGotReport:
			cur = e.WeightedAvailability
		}
	}
	if makespan > last {
		acc += cur * (makespan - last)
	}
	return acc / makespan
}
