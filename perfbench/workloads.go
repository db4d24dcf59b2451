package main

import (
	"fmt"
	"time"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/runner"
	"dare/internal/workload"
)

// arm is one simulation of a workload pass.
type arm struct {
	label string
	opts  runner.Options
}

// inputs is what a workload's set-up generates: the simulations of one
// pass, and how long trace generation and policy loading took.
type inputs struct {
	arms  []arm
	genS  float64 // workload.WL1 / WL2
	loadS float64 // config.LoadPolicy, which compiles the config's rules
}

// workloadDef is one benchmark workload. Every workload is a closed loop:
// one simulation at a time, the next starting when the previous returns.
type workloadDef struct {
	name  string
	setup func(seed uint64) (*inputs, error)
	// durable runs each pass through runner.RunCheckpointed and then
	// resumes from every checkpoint it wrote, restore-only.
	durable bool
}

var workloads = []workloadDef{
	{name: "paper-grid", setup: setupPaperGrid},
	{name: "scale-10k", setup: setupScale},
	{name: "fault-durable", setup: setupFaultDurable, durable: true},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// banditConfig is the A18 config-file arm: ElephantTrap with an
// epsilon-greedy bandit over admission probabilities. Paths are relative
// to the root of the checkout the benchmark runs from.
const banditConfig = "configs/bandit.json"

// timed returns how long fn took, in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

func loadBandit(in *inputs) (*config.PolicySet, error) {
	var set *config.PolicySet
	var err error
	in.loadS = timed(func() { set, err = config.LoadPolicy(banditConfig) })
	return set, err
}

// subSeed derives the seed of a workload's i-th simulation from the run
// seed. Each simulation draws its own trace, so a pass averages over many
// independent inputs and its cost depends little on which seed it got.
func subSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// setupPaperGrid builds the paper's evaluation (§V, Figs. 7 and 10):
// {CCT, EC2} × {wl1, wl2} × {fifo, fair} × {vanilla, greedy LRU,
// ElephantTrap, Scarlett, the bandit config}, 40 runs of 500 jobs, each
// on its own draw of its trace.
func setupPaperGrid(seed uint64) (*inputs, error) {
	in := &inputs{}
	bandit, err := loadBandit(in)
	if err != nil {
		return nil, err
	}
	policies := []core.PolicyKind{core.NonePolicy, core.GreedyLRUPolicy, core.ElephantTrapPolicy, core.ScarlettPolicy}
	for _, profile := range []*config.Profile{config.CCT(), config.EC2()} {
		for _, gen := range []func(uint64) *workload.Workload{workload.WL1, workload.WL2} {
			for _, sched := range []string{"fifo", "fair"} {
				for p := 0; p <= len(policies); p++ {
					s := subSeed(seed, len(in.arms))
					var wl *workload.Workload
					in.genS += timed(func() { wl = gen(s) })
					opts := runner.Options{Profile: profile, Workload: wl, Scheduler: sched, Seed: s}
					name := bandit.Name
					if p < len(policies) {
						opts.Policy = runner.PolicyFor(policies[p])
						name = policies[p].String()
					} else {
						opts.PolicySet = bandit
					}
					in.arms = append(in.arms, arm{label: fmt.Sprintf("%s/%s/%s/%s", profile.Name, wl.Name, sched, name), opts: opts})
				}
			}
		}
	}
	return in, nil
}

// scaleRuns is how many wl1 traces one scale-10k pass simulates.
const scaleRuns = 4

// setupScale builds wl1 runs on runner.ScaleProfile(10000): FIFO and
// ElephantTrap, so the fair scheduler never runs and the replication
// runtime runs without creating replicas (every per-node budget is 0).
func setupScale(seed uint64) (*inputs, error) {
	in := &inputs{}
	profile := runner.ScaleProfile(10000)
	for i := 0; i < scaleRuns; i++ {
		s := subSeed(seed, i)
		var wl *workload.Workload
		in.genS += timed(func() { wl = workload.WL1(s) })
		in.arms = append(in.arms, arm{label: fmt.Sprintf("scale-10k/wl1/fifo/elephanttrap/%d", i), opts: runner.Options{
			Profile:   profile,
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    runner.PolicyFor(core.ElephantTrapPolicy),
			Seed:      s,
		}})
	}
	return in, nil
}

// durableRuns is how many scenarios one fault-durable pass simulates.
const durableRuns = 12

// setupFaultDurable builds wl1 runs on EC2 with 5-node racks and
// replication factor 2, the fair scheduler and the bandit config, each
// under its own draw of the default churn and chaos scenarios (chaos with
// a master weight) plus one journal-mode master outage.
func setupFaultDurable(seed uint64) (*inputs, error) {
	in := &inputs{}
	bandit, err := loadBandit(in)
	if err != nil {
		return nil, err
	}
	profile := config.EC2()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	for i := 0; i < durableRuns; i++ {
		s := subSeed(seed, i)
		var wl *workload.Workload
		in.genS += timed(func() { wl = workload.WL1(s) })
		span := wl.Jobs[len(wl.Jobs)-1].Arrival
		churn := runner.DefaultChurnSpec(span, profile.Slaves)
		chaos := runner.DefaultChaosSpec(span)
		chaos.MasterWeight = 1
		in.arms = append(in.arms, arm{label: fmt.Sprintf("fault-durable/ec2/wl1/fair/%s/%d", bandit.Name, i), opts: runner.Options{
			Profile:       profile,
			Workload:      wl,
			Scheduler:     "fair",
			PolicySet:     bandit,
			Seed:          s,
			Churn:         &churn,
			Chaos:         &chaos,
			MasterOutages: []runner.MasterOutage{{At: 0.5 * span, Down: span / 16, Mode: "journal"}},
		}})
	}
	return in, nil
}

// completedTasks counts the map and reduce tasks of the jobs that
// completed: the user's unit of work.
func completedTasks(out *runner.Output) int {
	n := 0
	for _, r := range out.Results {
		if !r.Failed {
			n += r.NumMaps + r.NumRed
		}
	}
	return n
}
