package runner

import (
	"fmt"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// The paper's evaluation (§V): Figs. 7-11 and the two ablations behind
// its §I and §V-C claims.

// EvaluatedPolicies is the figure legend of Figs. 7, 9 and 10: vanilla
// Hadoop, DARE with greedy LRU eviction, DARE with ElephantTrap eviction.
var EvaluatedPolicies = []core.PolicyKind{core.NonePolicy, core.GreedyLRUPolicy, core.ElephantTrapPolicy}

// perfCols are the bars of Figs. 7 and 10: locality (a), GMTT normalised
// to the group's vanilla run (b), and slowdown (c), plus the map time and
// replication activity the ablations read.
var perfCols = []Column{
	{"wl", "%-5s"}, {"sched", "%-5s"}, {"policy", "%-13s"}, {"locality", "%9.3f"},
	{"gmtt-norm", "%10.3f"}, {"gmtt(s)", "%9.1f"}, {"slowdown", "%9.2f"},
	{"maptime(s)", "%10.2f"}, {"blocks/job", "%10.2f"},
}

// perfGrid runs the {workload × scheduler × policy} grid of Figs. 7 and
// 10 on profile.
func perfGrid(id string, profile *config.Profile, names []string, wls []*workload.Workload, seed uint64) (*Table, error) {
	var arms []arm
	for w, wl := range wls {
		for _, sched := range []string{"fifo", "fair"} {
			for _, kind := range EvaluatedPolicies {
				arms = append(arms, arm{[]any{names[w], sched, kind.String()},
					Options{Profile: profile, Workload: wl, Scheduler: sched, Policy: PolicyFor(kind), Seed: seed}})
			}
		}
	}
	// perArm reads the arms in grid order, so the vanilla run of each
	// (workload, scheduler) group is seen before the runs it normalizes.
	var vanillaGMTT float64
	return perArm(id, arms, perfCols, "", func(i int, out *Output) []any {
		s := out.Summary
		if arms[i].opts.Policy.Kind == core.NonePolicy {
			vanillaGMTT = s.GMTT
		}
		norm := 0.0
		if vanillaGMTT > 0 {
			norm = s.GMTT / vanillaGMTT
		}
		return []any{s.JobLocality, norm, s.GMTT, s.MeanSlowdown, s.MeanMapTime, s.BlocksPerJob}
	})
}

// fig7 is the dedicated-cluster grid: wl1 and wl2 under FIFO and Fair on
// the 20-node CCT profile.
func fig7(p Params) (*Table, error) {
	names := []string{"wl1", "wl2"}
	wls := make([]*workload.Workload, len(names))
	for i, name := range names {
		wl, err := WorkloadByName(name, p.Seed)
		if err != nil {
			return nil, err
		}
		wls[i] = truncate(wl, p.Jobs)
	}
	return perfGrid("fig7", config.CCT(), names, wls, p.Seed)
}

// fig10 is the virtualized-cloud grid: wl1 under FIFO and Fair on the
// 100-node EC2 profile.
func fig10(p Params) (*Table, error) {
	return perfGrid("fig10", config.EC2(), []string{"wl1"}, []*workload.Workload{ec2WL1(p)}, p.Seed)
}

// ec2WL1 is wl1 for the EC2 profile. Arrivals are compressed by the slot
// ratio so the 5×-larger cluster sees the same per-slot load as the CCT
// runs (SWIM's scaling rule).
func ec2WL1(p Params) *workload.Workload {
	cct, ec2 := config.CCT(), config.EC2()
	factor := float64(cct.Slaves*cct.MapSlotsPerNode) / float64(ec2.Slaves*ec2.MapSlotsPerNode)
	return truncate(workload.WL1(p.Seed), p.Jobs).ScaleArrivals(factor)
}

// sensCols are the sensitivity figures (8 and 9): locality and, in the
// bottom panel, replication activity as one parameter varies.
var sensCols = []Column{
	{"param", "%-10s"}, {"value", "%7.2f"}, {"sched", "%-5s"}, {"policy", "%-13s"},
	{"locality", "%9.3f"}, {"blocks/job", "%11.2f"},
}

// sensArms runs wl2 (the paper's sensitivity workload, §V-D) under both
// schedulers for each value, building the policy via mkPolicy.
func sensArms(param string, values []float64, mkPolicy func(v float64) core.Config, p Params) []arm {
	wl := truncate(workload.WL2(p.Seed), p.Jobs)
	var arms []arm
	for _, sched := range []string{"fifo", "fair"} {
		for _, v := range values {
			pcfg := mkPolicy(v)
			arms = append(arms, arm{[]any{param, v, sched, pcfg.Kind.String()},
				Options{Profile: config.CCT(), Workload: wl, Scheduler: sched, Policy: pcfg, Seed: p.Seed}})
		}
	}
	return arms
}

func sensTable(id string, arms []arm) (*Table, error) {
	return perArm(id, arms, sensCols, "", func(_ int, out *Output) []any {
		return []any{out.Summary.JobLocality, out.Summary.BlocksPerJob}
	})
}

// fig8a sweeps the ElephantTrap sampling probability p from 0 to 0.9
// with threshold = 1 and budget = 0.20.
func fig8a(p Params) (*Table, error) {
	values := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	return sensTable("fig8a", sensArms("p", values, func(v float64) core.Config {
		return core.Config{Kind: core.ElephantTrapPolicy, P: v, Threshold: 1, BudgetFraction: 0.20}
	}, p))
}

// fig8b sweeps the aging threshold 1–5 with p = 0.90. The paper runs
// this sweep at budget = 0.50; in our simulator the storage to
// access-demand ratio is higher than on the testbed, so a 0.50 budget
// never forces an eviction and the threshold (which only acts during
// eviction sweeps) would be a flat line. We use budget = 0.03 — the
// smallest setting where the aging mechanism is continuously exercised —
// and record the deviation in EXPERIMENTS.md.
func fig8b(p Params) (*Table, error) {
	values := []float64{1, 2, 3, 4, 5}
	return sensTable("fig8b", sensArms("threshold", values, func(v float64) core.Config {
		return core.Config{Kind: core.ElephantTrapPolicy, P: 0.90, Threshold: int64(v), BudgetFraction: 0.03}
	}, p))
}

// fig9a sweeps the replication budget 0–0.9 with greedy LRU eviction.
func fig9a(p Params) (*Table, error) {
	return sensTable("fig9a", sensArms("budget", budgetValues, func(v float64) core.Config {
		return core.Config{Kind: core.GreedyLRUPolicy, BudgetFraction: v}
	}, p))
}

// fig9b sweeps the replication budget 0–0.9 with ElephantTrap at p = 0.9
// and p = 0.3, threshold = 1.
func fig9b(p Params) (*Table, error) {
	var arms []arm
	for _, prob := range []float64{0.9, 0.3} {
		arms = append(arms, sensArms(fmt.Sprintf("budget(p=%.1f)", prob), budgetValues, func(v float64) core.Config {
			return core.Config{Kind: core.ElephantTrapPolicy, P: prob, Threshold: 1, BudgetFraction: v}
		}, p)...)
	}
	return sensTable("fig9b", arms)
}

// budgetValues spans the paper's 0-0.9 range with a finer grid at the low
// end, where the budget actually binds in our simulator (the knee sits
// below 0.1 because our DFS stores more cold bytes per accessed byte than
// the testbed did).
var budgetValues = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}

var fig11Cols = []Column{{"p", "%6.2f"}, {"cv-before", "%12.3f"}, {"cv-after", "%12.3f"}}

// fig11 is the uniformity experiment (§V-F): wl1 under FIFO with the
// probabilistic DARE (budget = 20%, threshold = 1), sweeping p, and
// reporting the coefficient of variation of the node popularity indices
// before and after the run.
func fig11(p Params) (*Table, error) {
	wl := truncate(workload.WL1(p.Seed), p.Jobs)
	var arms []arm
	for _, prob := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		arms = append(arms, arm{[]any{prob}, Options{
			Profile: config.CCT(), Workload: wl, Scheduler: "fifo", Seed: p.Seed,
			Policy: core.Config{Kind: core.ElephantTrapPolicy, P: prob, Threshold: 1, BudgetFraction: 0.20},
		}})
	}
	return perArm("fig11", arms, fig11Cols, "", func(_ int, out *Output) []any {
		return []any{out.CVBefore, out.CVAfter}
	})
}

// pairRows runs wl2 on CCT under both schedulers for policies a and b and
// reduces each scheduler's pair of runs to one row.
func pairRows(id string, p Params, a, b core.PolicyKind, row func(a, b *Output) []any) ([][]any, error) {
	wl := truncate(workload.WL2(p.Seed), p.Jobs)
	scheds := []string{"fifo", "fair"}
	var arms []arm
	for _, sched := range scheds {
		for _, kind := range []core.PolicyKind{a, b} {
			arms = append(arms, arm{[]any{sched, kind.String()},
				Options{Profile: config.CCT(), Workload: wl, Scheduler: sched, Policy: PolicyFor(kind), Seed: p.Seed}})
		}
	}
	outs, err := sweep(id, arms)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(scheds))
	for i, sched := range scheds {
		rows[i] = append([]any{sched}, row(outs[2*i], outs[2*i+1])...)
	}
	return rows, nil
}

var writesCols = []Column{
	{"sched", "%-5s"}, {"lru-locality", "%12.3f"}, {"et-locality", "%12.3f"},
	{"lru-writes", "%11d"}, {"et-writes", "%11d"}, {"et/lru", "%11.2f"},
}

// ablationWrites compares greedy LRU and ElephantTrap disk writes at
// comparable locality on wl2 — the §I claim that the competitive aging
// policy needs only ~50% of the greedy policy's writes.
func ablationWrites(p Params) (*Table, error) {
	rows, err := pairRows("ablation-writes", p, core.GreedyLRUPolicy, core.ElephantTrapPolicy, func(lru, et *Output) []any {
		ratio := 0.0
		if lru.Summary.DiskWrites != 0 {
			ratio = float64(et.Summary.DiskWrites) / float64(lru.Summary.DiskWrites)
		}
		return []any{lru.Summary.JobLocality, et.Summary.JobLocality, lru.Summary.DiskWrites, et.Summary.DiskWrites, ratio}
	})
	if err != nil {
		return nil, err
	}
	return &Table{Cols: writesCols, Rows: rows}, nil
}

var mapTimeCols = []Column{{"sched", "%-5s"}, {"vanilla(s)", "%14.2f"}, {"dare(s)", "%12.2f"}, {"reduction%", "%12.1f"}}

// ablationMapTime measures the §V-C mean map-task completion time
// reduction from dynamic replication (12% FIFO, 11% Fair in the paper) on
// wl2, using the greedy policy (the strongest replicator) as the DARE arm.
func ablationMapTime(p Params) (*Table, error) {
	rows, err := pairRows("ablation-maptime", p, core.NonePolicy, core.GreedyLRUPolicy, func(van, dare *Output) []any {
		v, d := van.Summary.MeanMapTime, dare.Summary.MeanMapTime
		return []any{v, d, (v - d) / v * 100}
	})
	if err != nil {
		return nil, err
	}
	return &Table{Cols: mapTimeCols, Rows: rows}, nil
}
