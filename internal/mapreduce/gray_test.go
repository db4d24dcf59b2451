package mapreduce_test

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/scheduler"
	"dare/internal/stats"
	"dare/internal/topology"
	"dare/internal/workload"
)

// grayFixture builds a small cluster + tracker pair for gray-failure tests.
func grayFixture(t *testing.T, p *config.Profile, seed uint64, jobs int) (*mapreduce.Cluster, *mapreduce.Tracker) {
	t.Helper()
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.GenConfig{NumJobs: jobs, NumFiles: 15, Seed: seed})
	tr, err := mapreduce.NewTracker(c, wl, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// launchLog records which node every task launch (original or speculative)
// landed on.
type launchLog struct {
	launches map[topology.NodeID]int
	kinds    map[event.Kind]int
}

func newLaunchLog() *launchLog {
	return &launchLog{launches: make(map[topology.NodeID]int), kinds: make(map[event.Kind]int)}
}

func (l *launchLog) HandleEvent(ev event.Event) {
	l.kinds[ev.Kind]++
	if ev.Kind == event.TaskLaunch || ev.Kind == event.TaskSpeculate {
		l.launches[topology.NodeID(ev.Node)]++
	}
}

func TestDegradeRestoreLifecycle(t *testing.T) {
	p := config.CCT()
	p.Slaves = 10
	c, tr := grayFixture(t, p, 1, 40)
	log := newLaunchLog()
	c.Bus.Subscribe(log)
	// Restores must land before the workload drains (the engine stops with
	// the last job, dropping any injection scheduled past that point).
	tr.ScheduleNodeDegrade(2, 4, false, 1)
	tr.ScheduleNodeDegrade(5, 3, true, 1)
	tr.ScheduleNodeRestore(2, 8)
	tr.ScheduleNodeRestore(5, 8)
	tr.SetInvariantChecks(true)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	g := tr.Gray()
	if g.Degrades != 2 || g.Restores != 2 {
		t.Fatalf("degrades=%d restores=%d, want 2/2", g.Degrades, g.Restores)
	}
	if log.kinds[event.NodeDegrade] != 2 || log.kinds[event.NodeRestore] != 2 {
		t.Fatalf("bus saw %d degrade / %d restore events, want 2/2",
			log.kinds[event.NodeDegrade], log.kinds[event.NodeRestore])
	}
	for _, id := range []topology.NodeID{2, 5} {
		if c.Nodes[id].SlowFactor != 1 || c.Nodes[id].DiskFactor != 1 {
			t.Fatalf("node %d not restored: slow=%g disk=%g", id, c.Nodes[id].SlowFactor, c.Nodes[id].DiskFactor)
		}
	}
}

func TestRestoreHealthyNodeIsNoOp(t *testing.T) {
	p := config.CCT()
	p.Slaves = 8
	_, tr := grayFixture(t, p, 2, 20)
	tr.ScheduleNodeRestore(1, 5)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if g := tr.Gray(); g.Restores != 0 {
		t.Fatalf("restoring a healthy node counted: %d", g.Restores)
	}
}

// Satellite: a slow (degraded, non-dead) node must still trigger
// speculation — the gray path stresses the speculator, not the kill path.
func TestDegradedNodeTriggersSpeculation(t *testing.T) {
	p := config.CCT()
	p.Slaves = 10
	p.SpeculativeExecution = true
	p.TaskNoiseSigma = 0.05 // nearly noise-free: only degradation makes stragglers
	_, tr := grayFixture(t, p, 3, 60)
	// A 16x slowdown makes every task on the node an unambiguous straggler;
	// with FIFO keeping slots busy, milder degradations leave too few idle
	// heartbeats for a backup to be a robust expectation.
	tr.ScheduleNodeDegrade(3, 16, false, 0)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.SpeculativeLaunches() == 0 {
		t.Fatal("no backups launched against a node degraded 16x")
	}
}

// Satellite: speculative backups must never land on a blacklisted node.
// The blacklisted tracker reports in but is offered no work, so neither
// the scheduler round nor the speculator (which fills slots on the
// Heartbeat event) can place anything there.
func TestSpeculationSkipsBlacklistedNode(t *testing.T) {
	p := config.EC2()
	p.Slaves = 12
	p.TaskNoiseSigma = 0.6
	p.SpeculativeExecution = true
	c, tr := grayFixture(t, p, 4, 80)
	log := newLaunchLog()
	c.Bus.Subscribe(log)
	const bad = topology.NodeID(5)
	mapreduce.Blacklist(c, bad)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.SpeculativeLaunches() == 0 {
		t.Skip("no backups fired for this seed; assertion would be vacuous")
	}
	if n := log.launches[bad]; n != 0 {
		t.Fatalf("%d launches landed on the blacklisted node", n)
	}
}

func TestCorruptionDetectedQuarantinedAndRetried(t *testing.T) {
	p := config.CCT()
	p.Slaves = 10
	c, tr := grayFixture(t, p, 5, 60)
	log := newLaunchLog()
	c.Bus.Subscribe(log)
	hb := p.HeartbeatInterval
	tr.EnableGrayReads(3*hb, hb/2, 4*hb, stats.NewRNG(5).Split(0x6A47))
	// Corrupt one replica of each of the first 30 blocks before any job
	// arrives: readers detect the damage via checksums.
	for b := 0; b < 30; b++ {
		tr.ScheduleBlockCorruption(dfs.BlockID(b), -1, 0.5)
	}
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Gray()
	if g.CorruptionsInjected != 30 {
		t.Fatalf("injected %d corruptions, want 30", g.CorruptionsInjected)
	}
	if g.CorruptionsDetected == 0 {
		t.Fatal("no corruption detected despite 30 corrupt replicas and gray reads")
	}
	if g.ReadRetries < g.CorruptionsDetected {
		t.Fatalf("retries %d < detections %d: every detection must retry", g.ReadRetries, g.CorruptionsDetected)
	}
	if log.kinds[event.ReplicaCorrupt] != g.CorruptionsDetected {
		t.Fatalf("bus saw %d quarantines, stats say %d", log.kinds[event.ReplicaCorrupt], g.CorruptionsDetected)
	}
	if log.kinds[event.ReadRetry] != g.ReadRetries {
		t.Fatalf("bus saw %d retries, stats say %d", log.kinds[event.ReadRetry], g.ReadRetries)
	}
	for _, r := range results {
		if r.Local+r.Rack+r.Remote != r.NumMaps {
			t.Fatalf("job %d lost tasks under corruption", r.ID)
		}
	}
	// Detected corruption must be gone from the registry; only latent
	// (never-read) marks may remain.
	if c.NN.CorruptReplicas() > g.CorruptionsInjected-g.CorruptionsDetected {
		t.Fatalf("%d corrupt replicas remain after %d detections", c.NN.CorruptReplicas(), g.CorruptionsDetected)
	}
}

func TestHedgedReadsFire(t *testing.T) {
	p := config.CCT()
	p.Slaves = 10
	c, tr := grayFixture(t, p, 6, 60)
	log := newLaunchLog()
	c.Bus.Subscribe(log)
	// A vanishingly small hedge timeout makes every remote read hedge.
	tr.EnableGrayReads(1e-6, 1, 10, nil)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	g := tr.Gray()
	if g.HedgedReads == 0 {
		t.Fatal("no hedged reads despite an always-fire timeout")
	}
	if g.HedgeWins > g.HedgedReads {
		t.Fatalf("hedge wins %d exceed hedged reads %d", g.HedgeWins, g.HedgedReads)
	}
	if log.kinds[event.HedgedRead] != g.HedgedReads {
		t.Fatalf("bus saw %d hedge events, stats say %d", log.kinds[event.HedgedRead], g.HedgedReads)
	}
}

func TestFlapRestoresStaleReplicas(t *testing.T) {
	p := config.CCT()
	p.Slaves = 10
	c, tr := grayFixture(t, p, 7, 60)
	tr.ScheduleNodeFlap(3, 5, 30)
	tr.SetInvariantChecks(true)
	results, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("results %d", len(results))
	}
	g := tr.Gray()
	if g.Flaps != 1 {
		t.Fatalf("flaps=%d, want 1", g.Flaps)
	}
	fes := tr.FailureEvents()
	if len(fes) != 1 || !fes[0].Flap {
		t.Fatalf("failure events %v: want one flap-tagged failure", fes)
	}
	res := tr.RecoveryEvents()
	if len(res) != 1 {
		t.Fatalf("recovery events %d, want 1", len(res))
	}
	lost := len(fes[0].Report.LostPrimaries) + len(fes[0].Report.LostDynamic)
	if res[0].Restored != lost {
		t.Fatalf("restored %d of %d scrubbed replicas", res[0].Restored, lost)
	}
	if g.ReplicasRestored != res[0].Restored {
		t.Fatalf("stats restored %d, event says %d", g.ReplicasRestored, res[0].Restored)
	}
	if !c.Nodes[3].Up || c.NN.NodeFailed(3) {
		t.Fatal("flapped node did not rejoin")
	}
	if err := c.NN.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The gray read path with hedging disabled and nothing injected must be
// byte-identical to the plain read path: same sources, same RNG draws,
// same NIC accounting.
func TestGrayReadPathCleanRunIdentical(t *testing.T) {
	run := func(gray bool) []mapreduce.Result {
		p := config.CCT()
		p.Slaves = 10
		_, tr := grayFixture(t, p, 8, 60)
		if gray {
			tr.EnableGrayReads(0, 1, 10, nil)
		}
		results, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	plain, grayed := run(false), run(true)
	for i := range plain {
		if plain[i] != grayed[i] {
			t.Fatalf("result %d differs between plain and clean gray read paths:\n%+v\n%+v",
				i, plain[i], grayed[i])
		}
	}
}

func TestGrayInjectionDeterministic(t *testing.T) {
	run := func() (mapreduce.GrayStats, []mapreduce.Result) {
		p := config.CCT()
		p.Slaves = 10
		p.SpeculativeExecution = true
		_, tr := grayFixture(t, p, 9, 60)
		hb := p.HeartbeatInterval
		tr.EnableGrayReads(3*hb, hb/2, 4*hb, stats.NewRNG(9).Split(0x6A47))
		tr.ScheduleNodeDegrade(1, 5, false, 3)
		tr.ScheduleNodeRestore(1, 40)
		tr.ScheduleNodeFlap(4, 10, 25)
		for i := 0; i < 10; i++ {
			tr.ScheduleRandomCorruption(float64(i))
		}
		tr.SetInvariantChecks(true)
		results, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tr.Gray(), results
	}
	ga, ra := run()
	gb, rb := run()
	if ga != gb {
		t.Fatalf("gray stats differ between identical runs:\n%+v\n%+v", ga, gb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result %d differs between identical runs", i)
		}
	}
}

func TestGrayInvalidSchedules(t *testing.T) {
	cases := []func(tr *mapreduce.Tracker){
		func(tr *mapreduce.Tracker) { tr.ScheduleNodeDegrade(99, 2, false, 1) },
		func(tr *mapreduce.Tracker) { tr.ScheduleNodeDegrade(1, 0.5, false, 1) },
		func(tr *mapreduce.Tracker) { tr.ScheduleNodeRestore(-2, 1) },
		func(tr *mapreduce.Tracker) { tr.ScheduleNodeFlap(99, 1, 5) },
		func(tr *mapreduce.Tracker) { tr.ScheduleNodeFlap(1, 1, 0) },
	}
	for i, inject := range cases {
		p := config.CCT()
		p.Slaves = 6
		_, tr := grayFixture(t, p, 10, 5)
		inject(tr)
		if _, err := tr.Run(); err == nil {
			t.Fatalf("case %d: invalid gray schedule accepted", i)
		}
	}
}
