package runner

import (
	"fmt"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/stats"
	"dare/internal/trace"
	"dare/internal/workload"
)

// Extension studies: claims the paper argues but does not plot, and the
// design-space questions around them.

var adaptationCols = []Column{
	{"policy", "%-14s"}, {"Q1", "%8.3f"}, {"Q2", "%8.3f"}, {"Q3*", "%8.3f"}, {"Q4", "%8.3f"},
	{"recovery", "%10.2f"}, {"repl-net(MB)", "%14.1f"},
}

// adaptation runs the §VI comparison: a workload whose popular file set
// rotates halfway through, replayed under vanilla, DARE (ElephantTrap),
// and the epoch-based Scarlett baseline. Rows give the mean job locality
// per quarter of the job stream (the shift starts Q3), the Q4/Q2
// recovery, and the network traffic spent creating replicas. Scarlett's
// aggressive whole-file proactive replication wins while popularity is
// stationary, but it pays real network traffic for every copy and its
// plan goes stale at the shift for up to an epoch; the reactive scheme
// starts re-replicating with the very first post-shift remote reads, for
// free.
func adaptation(p Params) (*Table, error) {
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = 500
	}
	wl := workload.Generate(workload.GenConfig{Name: "shift", NumJobs: jobs, Seed: p.Seed, ShiftAtJob: jobs / 2})
	arms := policyArms(Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: p.Seed},
		core.NonePolicy, core.ElephantTrapPolicy, core.ScarlettPolicy)
	return perArm("adaptation", arms, adaptationCols,
		"(* popularity shift at the start of Q3; recovery = Q4/Q2 locality)\n",
		func(_ int, out *Output) []any {
			q := quarterLocality(out.Results)
			recovery := 0.0
			if q[1] > 0 {
				recovery = q[3] / q[1]
			}
			return []any{q[0], q[1], q[2], q[3], recovery, float64(out.ExtraNetworkBytes) / (1 << 20)}
		})
}

// quarterLocality is the mean job locality in each quarter of the job
// stream.
func quarterLocality(results []mapreduce.Result) [4]float64 {
	var q [4]float64
	var counts [4]int
	for i, r := range results {
		k := i * 4 / len(results)
		q[k] += r.Locality()
		counts[k]++
	}
	for k := range q {
		if counts[k] > 0 {
			q[k] /= float64(counts[k])
		}
	}
	return q
}

var speculationCols = []Column{
	{"speculation", "%-12s"}, {"policy", "%-14s"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"},
	{"maptime(s)", "%11.2f"}, {"makespan", "%10.1f"}, {"backups", "%8d"},
}

// speculation replays wl1 on the noisy EC2 profile with Hadoop-style
// speculative execution off and on, under vanilla and DARE, counting the
// backup attempts launched. §II-B shows the virtualized cloud's task
// durations are wildly variable (Table II's σ): exactly the regime backup
// tasks were designed for, and a check that DARE composes with the
// standard straggler mitigation.
func speculation(p Params) (*Table, error) {
	wl := ec2WL1(p)
	var arms []arm
	for _, mode := range []string{"off", "on"} {
		for _, kind := range []core.PolicyKind{core.NonePolicy, core.ElephantTrapPolicy} {
			profile := config.EC2()
			profile.SpeculativeExecution = mode == "on"
			arms = append(arms, arm{[]any{mode, kind.String()},
				Options{Profile: profile, Workload: wl, Scheduler: "fifo", Policy: PolicyFor(kind), Seed: p.Seed}})
		}
	}
	return perArm("speculation", arms, speculationCols, "", func(_ int, out *Output) []any {
		s := out.Summary
		return []any{s.JobLocality, s.GMTT, s.MeanMapTime, s.Makespan, out.SpeculativeLaunches}
	})
}

var evictionCols = []Column{
	{"wl", "%-5s"}, {"policy", "%-14s"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"},
	{"writes", "%8d"}, {"evictions", "%10d"},
}

// eviction profiles the eviction policies §IV names — greedy LRU, greedy
// LFU, and the probabilistic ElephantTrap — on both paper workloads under
// FIFO at a budget of 0.03, below the knee of Fig. 9, so evictions churn
// continuously and the choice matters ("Choice between LRU and LFU should
// be made after profiling typical workloads").
func eviction(p Params) (*Table, error) {
	var arms []arm
	for _, name := range []string{"wl1", "wl2"} {
		wl, err := WorkloadByName(name, p.Seed)
		if err != nil {
			return nil, err
		}
		wl = truncate(wl, p.Jobs)
		for _, kind := range []core.PolicyKind{core.GreedyLRUPolicy, core.GreedyLFUPolicy, core.ElephantTrapPolicy} {
			pcfg := PolicyFor(kind)
			pcfg.BudgetFraction = 0.03
			arms = append(arms, arm{[]any{name, kind.String()},
				Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Policy: pcfg, Seed: p.Seed}})
		}
	}
	return perArm("eviction", arms, evictionCols,
		"(FIFO scheduler, budget 0.03 so the eviction choice binds)\n",
		func(_ int, out *Output) []any {
			s := out.Summary
			return []any{s.JobLocality, s.GMTT, s.DiskWrites, s.Evictions}
		})
}

var auditReplayCols = []Column{
	{"policy", "%-14s"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"},
	{"blocks/job", "%11.2f"}, {"network(GB)", "%11.1f"},
}

// auditReplay generates a week-long audit log, carves a 500-access slice
// from mid-week (warm data, like the paper's mid-trace segments), and
// replays it on the CCT profile under FIFO for each evaluated policy: the
// end-to-end check that the access process characterized in §III (heavy
// tail, bursts, daily repeats) is the regime DARE exploits, without the
// synthesizer's own workload assumptions in between.
func auditReplay(p Params) (*Table, error) {
	jobs := p.Jobs
	if jobs <= 0 {
		jobs = 500
	}
	log := trace.Generate(trace.GenConfig{Files: 120, Accesses: 20000, Seed: p.Seed})
	wl, err := workload.FromAuditLog(log, workload.ReplayConfig{Offset: len(log.Accesses) / 2, Jobs: jobs, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	arms := policyArms(Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: p.Seed}, EvaluatedPolicies...)
	return perArm("audit-replay", arms, auditReplayCols,
		"(500-access slice of the Yahoo!-shaped audit log, FIFO, CCT profile)\n",
		func(_ int, out *Output) []any {
			s := out.Summary
			return []any{s.JobLocality, s.GMTT, s.BlocksPerJob, float64(s.NetworkBytes) / (1 << 30)}
		})
}

var outputBoundCols = []Column{
	{"class", "%-14s"}, {"jobs", "%6d"}, {"vanilla-gmtt", "%14.2f"}, {"dare-gmtt", "%12.2f"}, {"reduction%", "%12.1f"},
}

// outputBound splits the §V-C observation by job class: "We believe this
// is due to a mixture of input-bound and output-bound tasks in the trace.
// Dynamic replication does not expedite output-bound tasks, whose
// turnaround time is dominated by output processing." It replays wl2
// under FIFO with and without DARE and reports each class's
// geometric-mean service time (launch to finish) under both.
func outputBound(p Params) (*Table, error) {
	wl := truncate(workload.WL2(p.Seed), p.Jobs)
	arms := policyArms(Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: p.Seed},
		core.NonePolicy, core.GreedyLRUPolicy)
	outs, err := sweep("output-bound", arms)
	if err != nil {
		return nil, err
	}
	van, dare := outs[0].Results, outs[1].Results
	t := &Table{Cols: outputBoundCols,
		Note: "(wl2, FIFO, geometric-mean service time; output-bound = output >= input, §V-C)\n"}
	for _, class := range []string{"input-bound", "output-bound"} {
		// Service time (launch -> finish) isolates the per-job effect from
		// the shared queueing delay, which DARE shortens for every class
		// alike on a loaded cluster.
		var vanTT, dareTT []float64
		for i := range van {
			if jobClass(van[i]) != class {
				continue
			}
			vanTT = append(vanTT, van[i].ServiceTime())
			dareTT = append(dareTT, dare[i].ServiceTime())
		}
		var vanGMTT, dareGMTT, reduction float64
		if len(vanTT) > 0 {
			vanGMTT, dareGMTT = stats.GeometricMean(vanTT), stats.GeometricMean(dareTT)
			reduction = (vanGMTT - dareGMTT) / vanGMTT * 100
		}
		t.Rows = append(t.Rows, []any{class, len(vanTT), vanGMTT, dareGMTT, reduction})
	}
	return t, nil
}

// jobClass classifies a job as output-bound when its output volume is at
// least its input volume (the ~1.2× transformation class of the
// generator's bimodal output-ratio mixture).
func jobClass(r mapreduce.Result) string {
	if r.OutputBlocks >= r.NumMaps {
		return "output-bound"
	}
	return "input-bound"
}

var delayCols = []Column{{"max-skips", "%-10d"}, {"policy", "%-14s"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"}}

// delaySweep quantifies the §VI complementarity claim ("DARE is
// scheduler-agnostic and can work together with [delay scheduling] and
// other scheduling techniques"): sweeping the fair scheduler's skip
// patience on wl1, vanilla Hadoop needs long delays to reach high
// locality — paying for them in turnaround — while DARE reaches the same
// locality at a fraction of the patience, because the replicas give every
// offer a better chance of being local.
func delaySweep(p Params) (*Table, error) {
	wl := truncate(workload.WL1(p.Seed), p.Jobs)
	var arms []arm
	for _, kind := range []core.PolicyKind{core.NonePolicy, core.ElephantTrapPolicy} {
		for _, skips := range []int{1, 2, 4, 8, 16, 32} {
			arms = append(arms, arm{[]any{skips, kind.String()}, Options{
				Profile: config.CCT(), Workload: wl, Scheduler: "fair", FairSkips: skips, Policy: PolicyFor(kind), Seed: p.Seed,
			}})
		}
	}
	return perArm("delay-sweep", arms, delayCols,
		"(wl1, fair scheduler; skip patience = delay-scheduling opportunities)\n",
		func(_ int, out *Output) []any {
			return []any{out.Summary.JobLocality, out.Summary.GMTT}
		})
}

var balanceCols = []Column{{"scenario", "%-14s"}, {"storage-cv", "%11.3f"}, {"popularity-cv", "%14.3f"}, {"moved(GB)", "%10.1f"}}

// balance contrasts the two notions of "balanced" that Fig. 11 is really
// about: the HDFS balancer equalizes *bytes* per node (storage-cv), DARE
// equalizes *popularity* per node (Fig. 11's popularity-cv). After wl1 it
// compares an untreated run, the HDFS balancer run afterwards, and DARE
// during the run, with the traffic each spent moving or creating replicas.
// The balancer fixes storage-cv but barely touches popularity-cv; DARE
// fixes popularity-cv without moving any dedicated traffic.
func balance(p Params) (*Table, error) {
	wl := truncate(workload.WL1(p.Seed), p.Jobs)
	scenarios := []struct {
		name string
		kind core.PolicyKind
	}{{"vanilla", core.NonePolicy}, {"hdfs-balancer", core.NonePolicy}, {"dare", core.ElephantTrapPolicy}}
	t := &Table{Cols: balanceCols, Rows: make([][]any, len(scenarios)),
		Note: "(the balancer equalizes bytes; DARE equalizes the popularity Fig. 11 measures)\n"}
	// Each scenario builds and runs its own world, so the three can
	// execute on the worker pool.
	err := forEachIndex(len(scenarios), func(i int) error {
		name := scenarios[i].name
		set, err := config.BuiltinPolicy(scenarios[i].kind.String())
		if err != nil {
			return err
		}
		rs, err := newRunState(Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", PolicySet: set, Seed: p.Seed})
		if err != nil {
			return err
		}
		if _, err := rs.run(); err != nil {
			return err
		}
		nn := rs.cluster.NN
		bal := dfs.NewBalancer(nn)
		moved := 0.0
		if name == "hdfs-balancer" {
			bal.Threshold = 0.02
			_, movedBytes, err := bal.Run()
			if err != nil {
				return err
			}
			moved = float64(movedBytes) / (1 << 30)
		}
		t.Rows[i] = []any{name, bal.StorageCV(), metrics.PlacementCV(nn, rs.tracker.Files(), rs.blockPop), moved}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

var uniformCols = []Column{
	{"scenario", "%-22s"}, {"factor", "%7d"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"}, {"extra storage%", "%14.0f%%"},
}

// uniform contrasts the blunt alternative to DARE that §III dismisses —
// "uniformly increasing the number of replicas is not an adequate way of
// improving locality" — with adaptive replication: wl1/FIFO at each
// uniform replication factor, then DARE at factor 3 + 20% budget. Extra
// storage is the footprint beyond factor-3 uniform replication (uniform
// factor k costs (k-3)/3; DARE costs its budget). Matching DARE's
// locality uniformly requires several times the storage, because uniform
// copies are mostly spent on data nobody reads.
func uniform(p Params) (*Table, error) {
	wl := truncate(workload.WL1(p.Seed), p.Jobs)
	var arms []arm
	var extra []float64
	for _, factor := range []int{2, 3, 4, 5, 6, 8} {
		profile := config.CCT()
		profile.ReplicationFactor = factor
		arms = append(arms, arm{[]any{fmt.Sprintf("uniform x%d", factor), factor},
			Options{Profile: profile, Workload: wl, Scheduler: "fifo", Policy: core.Config{Kind: core.NonePolicy}, Seed: p.Seed}})
		extra = append(extra, float64(factor-3)/3*100)
	}
	arms = append(arms, arm{[]any{"DARE x3 + 20% budget", 3},
		Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Policy: PolicyFor(core.ElephantTrapPolicy), Seed: p.Seed}})
	extra = append(extra, 20)
	return perArm("uniform", arms, uniformCols,
		"(wl1, FIFO; §III: uniform copies are mostly spent on data nobody reads)\n",
		func(i int, out *Output) []any {
			return []any{out.Summary.JobLocality, out.Summary.GMTT, extra[i]}
		})
}

var eventCols = []Column{
	{"policy", "%-14s"}, {"churn", "%-5s"}, {"total", "%9d"}, {"rep-add", "%9d"}, {"rep-rm", "%9d"},
	{"repair", "%9d"}, {"launch", "%9d"}, {"complete", "%9d"}, {"fail", "%9d"}, {"hbeat", "%9d"},
}

// eventVolume measures the event spine itself: per-kind cluster bus event
// volume for {vanilla, DARE-LRU, ElephantTrap} × {quiet, churn} on wl1,
// one run per arm. Vanilla publishes no replica churn beyond placement,
// the DARE arms add replica-add/remove traffic and the churn arms add the
// node-lifecycle and repair kinds. The tallies are exactly what a -events
// capture of each run would contain.
func eventVolume(p Params) (*Table, error) {
	wl := faultWL1(p)
	profile := faultProfile()
	spec := DefaultChurnSpec(span(wl), profile.Slaves)
	var arms []arm
	for _, kind := range EvaluatedPolicies {
		for _, churn := range []string{"no", "yes"} {
			opts := Options{Profile: profile, Workload: wl, Scheduler: "fifo", Policy: PolicyFor(kind), Seed: p.Seed}
			if churn == "yes" {
				opts.Churn = &spec
			}
			arms = append(arms, arm{[]any{kind.String(), churn}, opts})
		}
	}
	return perArm("events", arms, eventCols, "", func(_ int, out *Output) []any {
		c := out.EventCounts
		return []any{c.Total(), c[event.ReplicaAdd], c[event.ReplicaRemove], c[event.ReplicaRepair],
			c[event.TaskLaunch], c[event.TaskComplete], c[event.TaskFail], c[event.Heartbeat]}
	})
}

var policyCols = []Column{
	{"arm", "%-14s"}, {"locality", "%9.3f"}, {"gmtt(s)", "%9.2f"}, {"slowdown", "%9.2f"},
	{"replicas", "%9d"}, {"writes", "%8d"}, {"evictions", "%10d"},
}

// policySweep (A18) runs every built-in policy arm, then one arm per
// p.PolicyFiles config, on wl1 under FIFO on the CCT profile. The
// built-ins reproduce the corresponding -policy runs exactly; config arms
// (e.g. configs/bandit.json) compete on the same workload, scheduler, and
// seed, so every row is comparable.
func policySweep(p Params) (*Table, error) {
	var sets []*config.PolicySet
	for _, row := range config.PolicyRows {
		set, err := config.BuiltinPolicy(row.Name)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	for _, path := range p.PolicyFiles {
		set, err := config.LoadPolicy(path)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	wl := truncate(workload.WL1(p.Seed), p.Jobs)
	arms := make([]arm, len(sets))
	for i, set := range sets {
		arms[i] = arm{[]any{set.Name}, Options{Profile: config.CCT(), Workload: wl, Scheduler: "fifo", PolicySet: set, Seed: p.Seed}}
	}
	return perArm("policy", arms, policyCols,
		"(wl1, FIFO, CCT profile; extra arms come from -policy-file configs)\n",
		func(_ int, out *Output) []any {
			s := out.Summary
			return []any{s.JobLocality, s.GMTT, s.MeanSlowdown, s.ReplicasCreated, s.DiskWrites, s.Evictions}
		})
}
