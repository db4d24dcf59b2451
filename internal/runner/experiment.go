package runner

import (
	"fmt"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/netprobe"
	"dare/internal/trace"
	"dare/internal/workload"
)

// Params are the knobs an experiment reads. Every experiment takes Jobs
// and Seed; the fault and policy studies also read their own fields.
type Params struct {
	// Jobs truncates each run's workload; <= 0 runs the experiment's
	// default scale (the paper's 500 jobs for the paper artifacts).
	Jobs int
	Seed uint64
	// Churn overrides the churn study's schedule; a non-positive field
	// falls back to DefaultChurnSpec.
	Churn ChurnSpec
	// Chaos overrides the chaos study's scenario (see ChaosSpec).
	Chaos ChaosSpec
	// Check runs the invariant checker after every injected event in the
	// churn, chaos and failover studies.
	Check bool
	// PolicyFiles are policy config files the policy sweep adds as arms
	// after the built-ins.
	PolicyFiles []string
}

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	ID, Title string
	Run       func(p Params) (*Table, error)
}

// Experiments is the registry of every table and figure the evaluation
// prints, in presentation order (see EXPERIMENTS.md).
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: all-to-all ping RTTs (ms)", table1},
		{"table2", "Table II: disk and network bandwidth (MB/s)", table2},
		{"table3", "Table III: configuration of the test clusters", table3},
		{"fig1", "Fig. 1: hop-count distribution, 20-node EC2 cluster", fig1},
		{"fig2", "Fig. 2: file popularity vs rank (plain and block-weighted)", fig2},
		{"fig3", "Fig. 3: CDF of file age at access", fig3},
		{"fig4", "Fig. 4: 80%-coverage window sizes over the week", fig4},
		{"fig5", "Fig. 5: 80%-coverage window sizes within day 2", fig5},
		{"fig6", "Fig. 6: access pattern (CDF) used in the experiments", fig6},
		{"fig7", "Fig. 7: locality / GMTT / slowdown, 20-node CCT", fig7},
		{"fig8a", "Fig. 8a: sensitivity to ElephantTrap probability p", fig8a},
		{"fig8b", "Fig. 8b: sensitivity to the aging threshold", fig8b},
		{"fig9a", "Fig. 9a: sensitivity to the budget (greedy LRU)", fig9a},
		{"fig9b", "Fig. 9b: sensitivity to the budget (ElephantTrap)", fig9b},
		{"fig10", "Fig. 10: locality / GMTT / slowdown, 100-node EC2", fig10},
		{"fig11", "Fig. 11: uniformity of replica placement (cv of PI)", fig11},
		{"ablation-writes", "Ablation: ElephantTrap vs LRU disk writes (§I claim)", ablationWrites},
		{"ablation-maptime", "Ablation: map completion time reduction (§V-C claim)", ablationMapTime},
		{"adaptation", "Adaptation: reactive DARE vs epoch-based Scarlett under a popularity shift (§VI claim)", adaptation},
		{"availability", "Availability: data readable after node failures, with and without DARE (§IV-B claim)", availability},
		{"churn", "Churn: weighted availability, repair backlog, and slowdown under stochastic failures/recoveries (§IV-B claim)", churnStudy},
		{"chaos", "Chaos: turnaround, locality, and availability under mixed gray failures (crashes, slow nodes, corruption, flaps)", chaosStudy},
		{"failover", "Failover: master crash/recovery cost, journal replay vs block-report warming (A17)", failoverStudy},
		{"speculation", "Speculation: DARE composed with backup tasks on the noisy EC2 profile", speculation},
		{"eviction", "Eviction profile: LRU vs LFU vs ElephantTrap at a binding budget (§IV design space)", eviction},
		{"audit-replay", "Audit replay: the §III access process driven through the full cluster", auditReplay},
		{"output-bound", "Output-bound split: replication cannot expedite output processing (§V-C)", outputBound},
		{"delay-sweep", "Delay-scheduling patience sweep: DARE halves the waiting the fair scheduler needs (§VI)", delaySweep},
		{"balance", "Byte balance vs popularity balance: the HDFS balancer cannot do DARE's job (Fig. 11 context)", balance},
		{"uniform", "Uniform replication factors vs adaptive replication (§III premise)", uniform},
		{"events", "Event spine: per-kind cluster bus event volume across the policy arms", eventVolume},
		{"policy", "Policy arms: every built-in policy plus -policy-file config arms on one bench (A18)", policySweep},
	}
}

// arm is one simulation of an experiment: the cells that name it in its
// table row, and the options it runs.
type arm struct {
	name []any
	opts Options
}

// sweep runs every arm on the worker pool and returns the outputs in arm
// order. A failed run's error names the experiment and the arm.
func sweep(id string, arms []arm) ([]*Output, error) {
	outs := make([]*Output, len(arms))
	err := forEachIndex(len(arms), func(i int) error {
		out, err := Run(arms[i].opts)
		if err != nil {
			return fmt.Errorf("runner: %s %v: %w", id, arms[i].name, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// policyArms runs base once per policy kind, each arm named by its
// policy.
func policyArms(base Options, kinds ...core.PolicyKind) []arm {
	arms := make([]arm, len(kinds))
	for i, kind := range kinds {
		base.Policy = PolicyFor(kind)
		arms[i] = arm{[]any{kind.String()}, base}
	}
	return arms
}

// perArm is the common table shape: under cols and above note, one row
// per arm, the arm's name cells followed by the cells metrics reads from
// the i-th arm's output. metrics sees the arms in order, one at a time.
func perArm(id string, arms []arm, cols []Column, note string, metrics func(i int, out *Output) []any) (*Table, error) {
	outs, err := sweep(id, arms)
	if err != nil {
		return nil, err
	}
	t := &Table{Cols: cols, Note: note}
	for i, out := range outs {
		t.Rows = append(t.Rows, append(append([]any(nil), arms[i].name...), metrics(i, out)...))
	}
	return t, nil
}

// truncate limits a workload to its first n jobs (n <= 0 keeps all),
// letting benchmarks run scaled-down versions of the 500-job experiments.
func truncate(wl *workload.Workload, n int) *workload.Workload {
	if n <= 0 || n >= len(wl.Jobs) {
		return wl
	}
	out := *wl
	out.Jobs = wl.Jobs[:n]
	return &out
}

// span is the arrival time of a workload's last job (0 when empty).
func span(wl *workload.Workload) float64 {
	if n := len(wl.Jobs); n > 0 {
		return wl.Jobs[n-1].Arrival
	}
	return 0
}

// Environment and access-pattern characterization (§II-B, §III): text
// reports their own packages render.

func table1(p Params) (*Table, error) {
	return &Table{Note: netprobe.TableI(5, p.Seed, config.CCT(), config.EC2Small())}, nil
}

func table2(p Params) (*Table, error) {
	note := netprobe.TableII(50, p.Seed, config.CCT(), config.EC2())
	note += fmt.Sprintf("\nnet/disk bandwidth ratio: CCT %.3f, EC2 %.3f (§II-B: lower ratio => locality pays off more)\n",
		netprobe.BandwidthRatio(config.CCT(), 200, p.Seed), netprobe.BandwidthRatio(config.EC2(), 200, p.Seed))
	return &Table{Note: note}, nil
}

func table3(p Params) (*Table, error) {
	return &Table{Note: config.TableIII(config.CCT(), config.EC2())}, nil
}

func fig1(p Params) (*Table, error) {
	return &Table{Note: netprobe.Fig1(config.EC2Small(), p.Seed)}, nil
}

func auditLog(p Params) *trace.Log { return trace.Generate(trace.GenConfig{Seed: p.Seed}) }

func fig2(p Params) (*Table, error) {
	return &Table{Note: trace.RenderRanks(trace.PopularityRanks(auditLog(p)))}, nil
}

func fig3(p Params) (*Table, error) {
	return &Table{Note: trace.RenderAgeCDF(trace.AgeCDF(auditLog(p)))}, nil
}

func fig4(p Params) (*Table, error) {
	l := auditLog(p)
	res, err := trace.BurstWindows(l, trace.DefaultWindowConfig(l))
	if err != nil {
		return nil, err
	}
	return &Table{Note: trace.RenderWindows(res)}, nil
}

func fig5(p Params) (*Table, error) {
	res, err := trace.BurstWindows(auditLog(p), trace.Day2WindowConfig())
	if err != nil {
		return nil, err
	}
	return &Table{Note: trace.RenderWindows(res)}, nil
}

// fig6 samples the Zipf access CDF the workloads draw from: the first ten
// ranks, then every tenth.
func fig6(p Params) (*Table, error) {
	t := &Table{Cols: []Column{{"rank", "%8.0f"}, {"cumulative", "%12.3f"}}}
	for _, pt := range workload.Fig6Points(120, 0) {
		if int(pt.X)%10 == 1 || pt.X <= 10 {
			t.Rows = append(t.Rows, []any{pt.X, pt.P})
		}
	}
	return t, nil
}
