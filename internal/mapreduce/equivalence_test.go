package mapreduce_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/runner"
	"dare/internal/workload"
)

// The full-stack differentials below replay one runner.Run twice: once on
// the production path, once with a test-only seam (export_test.go)
// switched to the reference implementation. Each compares results,
// summaries and the JSONL event trace byte for byte.

// equivRun executes opts with the event recorder attached, so every
// equivalence check also proves the two paths publish the exact same
// event stream, byte for byte.
func equivRun(t *testing.T, opts runner.Options) (*runner.Output, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts.EventLog = &buf
	out, err := runner.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// firstJobs returns wl cut to its first n jobs.
func firstJobs(wl *workload.Workload, n int) *workload.Workload {
	out := *wl
	out.Jobs = wl.Jobs[:n]
	return &out
}

// compareRuns fails t on any difference between two runs' summaries,
// per-job results, failure/recovery records, or event traces.
func compareRuns(t *testing.T, label string, a *runner.Output, aLog []byte, b *runner.Output, bLog []byte) {
	t.Helper()
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("%s: summaries diverge\nproduction: %+v\nreference:  %+v", label, a.Summary, b.Summary)
	}
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Errorf("%s: per-job results diverge", label)
	}
	if !reflect.DeepEqual(a.FailureEvents, b.FailureEvents) ||
		!reflect.DeepEqual(a.RecoveryEvents, b.RecoveryEvents) {
		t.Errorf("%s: failure/recovery records diverge", label)
	}
	if !bytes.Equal(aLog, bLog) {
		t.Errorf("%s: event logs diverge", label)
	}
}

// linearScanMatches runs opts, then runs it again with every selection
// the run's replica churn could move checked against the linear scan
// (CheckSelectionAgainstScan), and compares the two runs: the checks must
// all pass and leave the run unchanged.
func linearScanMatches(t *testing.T, opts runner.Options) {
	t.Helper()
	plain, plainLog := equivRun(t, opts)
	checks := mapreduce.CheckSelectionAgainstScan(t)
	checked, checkedLog := equivRun(t, opts)
	compareRuns(t, "plain vs checked", plain, plainLog, checked, checkedLog)
	if *checks == 0 {
		t.Error("the run checked no selection")
	}
}

// TestIndexedMatchesLinearScan is the full-run contract of block
// selection on the name node's index, its sorted per-node block lists:
// for every profile, scheduler and seed, every offer the run's replica
// changes could move takes the block the O(pending) linear scan takes,
// and checking it changes nothing — same per-job results, same summary,
// byte for byte.
func TestIndexedMatchesLinearScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run equivalence matrix")
	}
	profiles := []struct {
		name string
		mk   func() *config.Profile
	}{{"cct", config.CCT}, {"ec2", config.EC2}}
	// wl2's large jobs (60+ maps) put many pending blocks of one job on a
	// node, so the lowest seq among them has to win; wl1 covers small
	// jobs.
	workloads := []struct {
		name string
		mk   func(uint64) *workload.Workload
	}{{"wl1", workload.WL1}, {"wl2", workload.WL2}}
	for _, p := range profiles {
		for _, wl := range workloads {
			for _, sched := range []string{"fifo", "fair"} {
				for _, seed := range []uint64{7, 42, 99} {
					t.Run(fmt.Sprintf("%s/%s/%s/%d", p.name, wl.name, sched, seed), func(t *testing.T) {
						linearScanMatches(t, runner.Options{
							Profile:   p.mk(),
							Workload:  firstJobs(wl.mk(seed), 60),
							Scheduler: sched,
							Policy:    runner.PolicyFor(core.ElephantTrapPolicy),
							Seed:      seed,
						})
					})
				}
			}
		}
	}
}

// TestIndexedMatchesLinearScanUnderFailures drives the replica-removal
// paths (node failure, repair re-replication) under the check: a removed
// replica must stop counting at once.
func TestIndexedMatchesLinearScanUnderFailures(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			wl := firstJobs(workload.WL2(seed), 60)
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			linearScanMatches(t, runner.Options{
				Profile:   config.CCT(),
				Workload:  wl,
				Scheduler: "fifo",
				Policy:    runner.PolicyFor(core.GreedyLRUPolicy),
				Seed:      seed,
				Failures: []runner.NodeFailure{
					{Node: 2, At: span * 0.3},
					{Node: 7, At: span * 0.6},
				},
			})
		})
	}
}

// TestIndexedMatchesLinearScanUnderChurn extends the contract to the full
// churn machinery on racks of 5: recoveries re-open nodes for placement
// (replicas repaired onto a rejoined node must count) and a rack failure
// removes a whole rack's replicas at once. The invariant checker rides
// along, so a metadata divergence fails at the event that caused it.
func TestIndexedMatchesLinearScanUnderChurn(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	for _, seed := range []uint64{5, 11, 42} {
		for _, sched := range []string{"fifo", "fair"} {
			t.Run(fmt.Sprintf("%s/%d", sched, seed), func(t *testing.T) {
				wl := firstJobs(workload.WL2(seed), 60)
				span := wl.Jobs[len(wl.Jobs)-1].Arrival
				linearScanMatches(t, runner.Options{
					Profile:   profile,
					Workload:  wl,
					Scheduler: sched,
					Policy:    runner.PolicyFor(core.GreedyLRUPolicy),
					Seed:      seed,
					Failures: []runner.NodeFailure{
						{Node: 2, At: span * 0.2},
						{Node: 7, At: span * 0.5},
					},
					Recoveries: []runner.NodeRecovery{
						{Node: 2, At: span * 0.6},
						{Node: 7, At: span * 0.9},
					},
					RackFailures: []runner.RackFailure{
						{Rack: 1, At: span * 0.75},
					},
					CheckInvariants: true,
				})
			})
		}
	}
}

// TestCohortMatchesPerNodeFullStack is the end-to-end determinism
// contract of the coalesced heartbeat driver: a full cluster run — churn,
// chaos, invariant checks, the works — with heartbeats swept by 4-node
// cohort events must produce identical results and a byte-identical event
// trace to the per-node reference, where every node ticks alone (a
// singleton cohort, stride 1) on the phase its 4-node cohort has. The sim
// package's cohort differentials prove a singleton cohort ticks exactly
// as a per-node ticker; this proves nothing above the heartbeat driver
// observes a difference either. Stride 4 is forced because the auto scale
// would give singleton cohorts on a 19-node cluster, making the sweep
// path trivially identical; the forced size makes churn and chaos
// exercise real mid-cohort member splices (Stop tombstones, Resume tail
// re-appends, flap rejoin ordering).
//
// The DARE announce/lazy-delete delays are set off the heartbeat grid.
// Their defaults equal the heartbeat interval exactly, which parks
// replica announcements (deferred from task launches, i.e. from grid
// instants) precisely on the next grid instant — the one case where the
// two drivers legitimately order differently: the per-node reference
// interleaves such an event between the member heartbeats of a cohort,
// the sweep fires it before the whole sweep (one engine event cannot
// split). DESIGN.md §4g records this boundary; at the auto-scaled
// singleton size production runs use on paper-scale clusters the case
// cannot arise.
func TestCohortMatchesPerNodeFullStack(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	policy := runner.PolicyFor(core.GreedyLRUPolicy)
	policy.AnnounceDelay = 0.13
	policy.LazyDeleteDelay = 0.07
	for _, seed := range []uint64{7, 42} {
		for _, arm := range []string{"plain", "churn", "chaos"} {
			t.Run(fmt.Sprintf("%s/%d", arm, seed), func(t *testing.T) {
				wl := firstJobs(workload.WL2(seed), 40)
				span := wl.Jobs[len(wl.Jobs)-1].Arrival
				opts := runner.Options{
					Profile:         profile,
					Workload:        wl,
					Scheduler:       "fair",
					Policy:          policy,
					Seed:            seed,
					CheckInvariants: true,
				}
				switch arm {
				case "churn":
					spec := runner.DefaultChurnSpec(span, profile.Slaves)
					opts.Churn = &spec
				case "chaos":
					spec := runner.DefaultChaosSpec(span)
					opts.Chaos = &spec
				}
				mapreduce.ForceHeartbeatCohorts(t, 4, false)
				co, coLog := equivRun(t, opts)
				mapreduce.ForceHeartbeatCohorts(t, 4, true)
				pn, pnLog := equivRun(t, opts)
				compareRuns(t, "cohort vs per-node", co, coLog, pn, pnLog)
				// The coalescing must actually coalesce: with 4-member
				// cohorts the run executes strictly fewer engine events,
				// while the bus traffic above (compared byte for byte via
				// the logs) is untouched.
				if co.EventsProcessed >= pn.EventsProcessed {
					t.Errorf("cohort sweep executed %d engine events, per-node %d — no coalescing",
						co.EventsProcessed, pn.EventsProcessed)
				}
			})
		}
	}
}

// TestScaleTraceEquivalence pins the coalescing on a real scale
// configuration with production defaults: a 1000-node ScaleProfile run on
// the auto-scaled cohorts (size 7, genuine multi-member sweeps) must
// publish a byte-identical event trace to the per-node reference on the
// same phases. The vanilla policy keeps every deferred event off the
// heartbeat grid (no announce/lazy-delete delays), so this holds with the
// defaults.
func TestScaleTraceEquivalence(t *testing.T) {
	const seed = 42
	opts := runner.Options{
		Profile:   runner.ScaleProfile(1000),
		Workload:  firstJobs(workload.WL1(seed), 20),
		Scheduler: "fifo",
		Seed:      seed,
	}
	co, coLog := equivRun(t, opts)
	mapreduce.ForceHeartbeatCohorts(t, 0, true)
	pn, pnLog := equivRun(t, opts)
	compareRuns(t, "1000 nodes, cohort vs per-node", co, coLog, pn, pnLog)
	if co.EventsProcessed >= pn.EventsProcessed {
		t.Errorf("cohort sweep executed %d engine events, per-node %d — no coalescing at 1000 nodes",
			co.EventsProcessed, pn.EventsProcessed)
	}
	if co.EventCounts.Total() != pn.EventCounts.Total() {
		t.Errorf("bus event totals diverge: %d vs %d", co.EventCounts.Total(), pn.EventCounts.Total())
	}
	if hb := co.EventCounts[event.Heartbeat]; hb == 0 {
		t.Error("run published no heartbeats")
	}
	// Both sides share the driver's member wiring, so pin the order the
	// per-node tickers of the historical driver fired in directly: at
	// every shared instant, heartbeats go out in ascending node ID order.
	var prev struct {
		T    float64 `json:"t"`
		Node int     `json:"node"`
	}
	for _, line := range bytes.Split(coLog, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"kind":"heartbeat"`)) {
			continue
		}
		cur := prev
		if err := json.Unmarshal(line, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.T == prev.T && cur.Node <= prev.Node {
			t.Fatalf("at t=%v node %d beat after node %d", cur.T, cur.Node, prev.Node)
		}
		prev = cur
	}
}
