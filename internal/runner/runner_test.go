package runner

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/policy"
	"dare/internal/workload"
)

const (
	testJobs = 300
	testSeed = 12345
)

func mustRun(t *testing.T, opts Options) *Output {
	t.Helper()
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func cctOpts(sched string, kind core.PolicyKind, wl *workload.Workload) Options {
	return Options{
		Profile:   config.CCT(),
		Workload:  wl,
		Scheduler: sched,
		Policy:    PolicyFor(kind),
		Seed:      testSeed,
	}
}

func TestRunValidation(t *testing.T) {
	wl := truncate(workload.WL1(testSeed), 10)
	if _, err := Run(Options{Workload: wl, Scheduler: "fifo"}); err == nil {
		t.Fatal("missing profile accepted")
	}
	if _, err := Run(Options{Profile: config.CCT(), Scheduler: "fifo"}); err == nil {
		t.Fatal("missing workload accepted")
	}
	if _, err := Run(Options{Profile: config.CCT(), Workload: wl, Scheduler: "bogus"}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

// TestRunRejectsUncompilablePolicyRules: a policy whose rules do not
// compile fails the run before the recorder attaches. The full wl1 file
// population would spill the recorder's buffer while NewTracker places
// it, so an empty log shows the check ran first.
func TestRunRejectsUncompilablePolicyRules(t *testing.T) {
	var log bytes.Buffer
	opts := cctOpts("fifo", core.ElephantTrapPolicy, workload.WL1(testSeed))
	opts.Policy.Rules = &policy.RuleSet{Admit: &policy.RuleSpec{Rule: "nope"}}
	opts.EventLog = &log
	out, err := Run(opts)
	if err == nil || out != nil {
		t.Fatalf("uncompilable admit rule ran: out=%v err=%v", out != nil, err)
	}
	if !strings.Contains(err.Error(), "compile policy rules") {
		t.Fatalf("error %q does not name the rule compile", err)
	}
	if log.Len() != 0 {
		t.Fatalf("the event log holds %d bytes", log.Len())
	}
}

func TestRunDeterministic(t *testing.T) {
	wl := truncate(workload.WL1(testSeed), 100)
	a := mustRun(t, cctOpts("fifo", core.ElephantTrapPolicy, wl))
	b := mustRun(t, cctOpts("fifo", core.ElephantTrapPolicy, wl))
	if a.Summary != b.Summary {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

// TestDAREImprovesFIFOLocality is the headline result (Fig. 7a): dynamic
// replication must raise FIFO locality by a large factor.
func TestDAREImprovesFIFOLocality(t *testing.T) {
	wl := truncate(workload.WL1(testSeed), testJobs)
	vanilla := mustRun(t, cctOpts("fifo", core.NonePolicy, wl))
	lru := mustRun(t, cctOpts("fifo", core.GreedyLRUPolicy, wl))
	et := mustRun(t, cctOpts("fifo", core.ElephantTrapPolicy, wl))

	if vanilla.Summary.JobLocality > 0.35 {
		t.Fatalf("vanilla FIFO locality %.3f; expected a low baseline", vanilla.Summary.JobLocality)
	}
	if lru.Summary.JobLocality < 2*vanilla.Summary.JobLocality {
		t.Fatalf("LRU locality %.3f vs vanilla %.3f: DARE should at least double it",
			lru.Summary.JobLocality, vanilla.Summary.JobLocality)
	}
	if et.Summary.JobLocality < 1.5*vanilla.Summary.JobLocality {
		t.Fatalf("ElephantTrap locality %.3f vs vanilla %.3f", et.Summary.JobLocality, vanilla.Summary.JobLocality)
	}
}

// TestDAREReducesGMTTAndSlowdown covers Fig. 7b/7c's direction: turnaround
// and slowdown improve under DARE for the FIFO scheduler.
func TestDAREReducesGMTTAndSlowdown(t *testing.T) {
	wl := truncate(workload.WL1(testSeed), testJobs)
	vanilla := mustRun(t, cctOpts("fifo", core.NonePolicy, wl))
	lru := mustRun(t, cctOpts("fifo", core.GreedyLRUPolicy, wl))
	if lru.Summary.GMTT >= vanilla.Summary.GMTT {
		t.Fatalf("GMTT %.2f not below vanilla %.2f", lru.Summary.GMTT, vanilla.Summary.GMTT)
	}
	if lru.Summary.MeanSlowdown >= vanilla.Summary.MeanSlowdown {
		t.Fatalf("slowdown %.2f not below vanilla %.2f", lru.Summary.MeanSlowdown, vanilla.Summary.MeanSlowdown)
	}
	if lru.Summary.MeanMapTime >= vanilla.Summary.MeanMapTime {
		t.Fatalf("map time %.2f not below vanilla %.2f (§V-C)", lru.Summary.MeanMapTime, vanilla.Summary.MeanMapTime)
	}
}

// TestFairSchedulerHighBaseline covers the §V-B observation: the Fair
// scheduler with delay scheduling achieves high locality even without
// DARE, and DARE pushes it higher still.
func TestFairSchedulerHighBaseline(t *testing.T) {
	wl := truncate(workload.WL2(testSeed), testJobs)
	vanilla := mustRun(t, cctOpts("fair", core.NonePolicy, wl))
	lru := mustRun(t, cctOpts("fair", core.GreedyLRUPolicy, wl))
	if vanilla.Summary.JobLocality < 0.6 {
		t.Fatalf("fair vanilla locality %.3f; delay scheduling should give a high baseline (~0.83 in the paper)",
			vanilla.Summary.JobLocality)
	}
	if lru.Summary.JobLocality <= vanilla.Summary.JobLocality {
		t.Fatalf("fair+DARE locality %.3f not above vanilla %.3f", lru.Summary.JobLocality, vanilla.Summary.JobLocality)
	}
	if lru.Summary.JobLocality < 0.85 {
		t.Fatalf("fair+DARE locality %.3f; paper reports >85%%", lru.Summary.JobLocality)
	}
}

// TestElephantTrapWriteEfficiency covers the §I claim: ElephantTrap
// achieves comparable locality to greedy LRU with roughly half the disk
// writes.
func TestElephantTrapWriteEfficiency(t *testing.T) {
	tbl := mustTable(t, ablationWrites, Params{Jobs: testJobs, Seed: testSeed})
	for i, row := range tbl.Rows {
		get := func(head string) float64 { return num(t, tbl, i, head) }
		if get("et-writes") >= get("lru-writes") {
			t.Fatalf("%s: ET writes %v not below LRU %v", row[0], get("et-writes"), get("lru-writes"))
		}
		if ratio := get("et/lru"); ratio > 0.7 {
			t.Fatalf("%s: ET/LRU write ratio %.2f; paper reports ~0.5", row[0], ratio)
		}
		if get("et-locality") < 0.6*get("lru-locality") {
			t.Fatalf("%s: ET locality %.3f too far below LRU %.3f", row[0], get("et-locality"), get("lru-locality"))
		}
	}
}

// sensByValue indexes a sensitivity table's FIFO rows by swept value.
func sensByValue(t *testing.T, tbl *Table) map[float64]int {
	byV := map[float64]int{}
	for i, row := range tbl.Rows {
		if row[2] == "fifo" {
			byV[row[1].(float64)] = i
		}
	}
	return byV
}

// TestFig8PMonotoneTrend: locality grows with p and flattens; replication
// activity grows with p (Fig. 8a).
func TestFig8PMonotoneTrend(t *testing.T) {
	tbl := mustTable(t, fig8a, Params{Jobs: testJobs, Seed: testSeed})
	byP := sensByValue(t, tbl)
	loc := func(p float64) float64 { return num(t, tbl, byP[p], "locality") }
	blocks := func(p float64) float64 { return num(t, tbl, byP[p], "blocks/job") }
	if loc(0.9) <= loc(0) {
		t.Fatalf("locality at p=0.9 (%.3f) not above p=0 (%.3f)", loc(0.9), loc(0))
	}
	if blocks(0.9) <= blocks(0.1) {
		t.Fatalf("blocks/job at p=0.9 (%.2f) not above p=0.1 (%.2f)", blocks(0.9), blocks(0.1))
	}
	if blocks(0) != 0 {
		t.Fatalf("p=0 must create no replicas, got %.2f per job", blocks(0))
	}
	// Most of the gain arrives by p ~ 0.2-0.3 (§V-D).
	gainAt03 := loc(0.3) - loc(0)
	gainTotal := loc(0.9) - loc(0)
	if gainAt03 < 0.4*gainTotal {
		t.Fatalf("p=0.3 captures only %.0f%% of the total locality gain; paper says most of it", 100*gainAt03/gainTotal)
	}
}

// TestFig9BudgetTrend: blocks created per job decrease as the budget
// grows, while locality weakly increases (Fig. 9).
func TestFig9BudgetTrend(t *testing.T) {
	tbl := mustTable(t, fig9a, Params{Jobs: testJobs, Seed: testSeed})
	byB := sensByValue(t, tbl)
	lowB, highB := byB[0.01], byB[0.9]
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	if get(highB, "locality") < get(lowB, "locality") {
		t.Fatalf("locality at budget 0.9 (%.3f) below budget 0.01 (%.3f)", get(highB, "locality"), get(lowB, "locality"))
	}
	if get(highB, "blocks/job") >= get(lowB, "blocks/job") {
		t.Fatalf("blocks/job at budget 0.9 (%.2f) not below 0.01 (%.2f): thrashing should fall with budget",
			get(highB, "blocks/job"), get(lowB, "blocks/job"))
	}
}

// TestFig11UniformityImproves: DARE flattens the popularity-index
// distribution (Fig. 11), with pronounced gains by p = 0.2.
func TestFig11UniformityImproves(t *testing.T) {
	tbl := mustTable(t, fig11, Params{Jobs: testJobs, Seed: testSeed})
	byP := map[float64]int{}
	for i, row := range tbl.Rows {
		byP[row[0].(float64)] = i
	}
	cv := func(p float64) (before, after float64) {
		return num(t, tbl, byP[p], "cv-before"), num(t, tbl, byP[p], "cv-after")
	}
	if before, after := cv(0); math.Abs(after-before) > 1e-9 {
		t.Fatalf("p=0 must not change placement: before %.3f after %.3f", before, after)
	}
	if before, after := cv(0.2); after >= 0.8*before {
		t.Fatalf("p=0.2 cv after %.3f vs before %.3f: expected significant uniformity gain", after, before)
	}
	for _, p := range []float64{0.2, 0.5, 0.9} {
		if before, after := cv(p); after >= before {
			t.Fatalf("p=%.1f: cv did not improve (%.3f -> %.3f)", p, before, after)
		}
	}
}

// TestEC2RunsImprove covers §V-E: DARE lifts the very low locality of
// the virtualized cluster and cuts its GMTT.
func TestEC2RunsImprove(t *testing.T) {
	tbl := mustTable(t, fig10, Params{Jobs: 200, Seed: testSeed})
	byKey := rowsBy(t, tbl, "sched", "policy")
	get := func(key, head string) float64 { return num(t, tbl, byKey[key], head) }
	if get("fifo/vanilla", "locality") > 0.2 {
		t.Fatalf("EC2 FIFO vanilla locality %.3f; 3 replicas over 99 nodes must give a very low baseline", get("fifo/vanilla", "locality"))
	}
	if get("fifo/lru", "locality") < 2*get("fifo/vanilla", "locality") {
		t.Fatalf("EC2 FIFO DARE locality %.3f vs vanilla %.3f", get("fifo/lru", "locality"), get("fifo/vanilla", "locality"))
	}
	if norm := get("fifo/lru", "gmtt-norm"); norm >= 1 {
		t.Fatalf("EC2 GMTT did not improve: norm %.3f", norm)
	}
	if get("fair/lru", "locality") <= get("fair/vanilla", "locality") {
		t.Fatalf("EC2 fair locality did not improve: %.3f vs %.3f", get("fair/lru", "locality"), get("fair/vanilla", "locality"))
	}
}

func TestAblationMapTime(t *testing.T) {
	tbl := mustTable(t, ablationMapTime, Params{Jobs: testJobs, Seed: testSeed})
	for i, row := range tbl.Rows {
		r := num(t, tbl, i, "reduction%")
		// FIFO has plenty of headroom; the fair scheduler's baseline is
		// already near-local, so only direction (no regression) is
		// asserted there.
		if row[0] == "fifo" && r <= 2 {
			t.Fatalf("fifo: map time reduction %.1f%%; paper reports ~12%%", r)
		}
		if r < -2 {
			t.Fatalf("%s: map time regressed by %.1f%%", row[0], -r)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"wl1", "wl2"} {
		wl, err := WorkloadByName(name, 1)
		if err != nil || wl.Name != name {
			t.Fatalf("WorkloadByName(%s): %v", name, err)
		}
	}
	if _, err := WorkloadByName("wl9", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTruncate(t *testing.T) {
	wl := workload.WL1(1)
	short := truncate(wl, 10)
	if len(short.Jobs) != 10 {
		t.Fatalf("truncate kept %d jobs", len(short.Jobs))
	}
	if truncate(wl, 0) != wl || truncate(wl, len(wl.Jobs)+5) != wl {
		t.Fatal("truncate should be a no-op outside range")
	}
	if len(wl.Jobs) != 500 {
		t.Fatal("truncate mutated the original")
	}
}

func TestPolicyFor(t *testing.T) {
	if PolicyFor(core.NonePolicy).Kind != core.NonePolicy {
		t.Fatal("none policy wrong")
	}
	if p := PolicyFor(core.GreedyLRUPolicy); p.Kind != core.GreedyLRUPolicy || p.BudgetFraction != 0.2 {
		t.Fatalf("lru policy %+v", p)
	}
	if p := PolicyFor(core.ElephantTrapPolicy); p.P != 0.3 || p.Threshold != 1 || p.BudgetFraction != 0.2 {
		t.Fatalf("et policy %+v", p)
	}
	// Every kind's whole Config, pinned: the goldens and perfbench digests
	// were all produced from exactly these.
	for _, want := range []core.Config{
		{Kind: core.NonePolicy},
		{Kind: core.GreedyLRUPolicy, BudgetFraction: 0.2},
		{Kind: core.GreedyLFUPolicy, BudgetFraction: 0.2},
		{Kind: core.ElephantTrapPolicy, P: 0.3, Threshold: 1, BudgetFraction: 0.2, AnnounceDelay: 1, LazyDeleteDelay: 1},
		{Kind: core.ScarlettPolicy, BudgetFraction: 0.2, Epoch: 15, AccessesPerReplica: 4, MaxExtraReplicas: 16},
	} {
		if got := PolicyFor(want.Kind); got != want {
			t.Errorf("PolicyFor(%s) = %+v, want %+v", want.Kind, got, want)
		}
		// Each is its built-in row, converted; ElephantTrap's 1.0 s
		// delays (core.DefaultConfig) are the one exception.
		spec, err := config.BuiltinPolicySpec(want.Kind.String())
		if err != nil {
			t.Fatal(err)
		}
		row, err := core.ConfigFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want.Kind == core.ElephantTrapPolicy {
			row.AnnounceDelay, row.LazyDeleteDelay = 1, 1
		}
		if row != want {
			t.Errorf("%s: PolicyFor is not its converted row %+v", want.Kind, row)
		}
	}
}

func TestRenderers(t *testing.T) {
	renders(t, perfCols, []any{"wl1", "fifo", "vanilla", 0.1, 1.0, 5.0, 1.2, 2.0, 0.0}, "gmtt-norm", "vanilla")
	renders(t, sensCols, []any{"p", 0.3, "fifo", "elephanttrap", 0.5, 1.0}, "blocks/job", "   0.30")
	renders(t, fig11Cols, []any{0.2, 0.5, 0.2}, "cv-before", "  0.20")
	renders(t, writesCols, []any{"fifo", 0.5, 0.5, int64(100), int64(50), 0.5}, "et/lru", "100")
	renders(t, mapTimeCols, []any{"fifo", 2.0, 1.8, 10.0}, "reduction%", "10.0")
}
