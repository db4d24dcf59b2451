package core

import (
	"errors"
	"testing"
	"time"

	"dare/internal/dfs"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// scarlettFixture: 10 nodes, two files (one to make popular, one cold).
type scarlettFixture struct {
	eng  *sim.Engine
	nn   *dfs.NameNode
	s    *Scarlett
	hot  *dfs.File
	cold *dfs.File
}

func newScarlettFixture(t *testing.T, cfg Config, seed uint64) *scarlettFixture {
	t.Helper()
	topo := topology.NewDedicated(10, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 3, stats.NewRNG(seed))
	hot, err := createFile(nn, "hot", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := createFile(nn, "cold", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	s := NewScarlett(cfg, nn, nil) // manual stepping via Rebalance
	return &scarlettFixture{eng: eng, nn: nn, s: s, hot: hot, cold: cold}
}

// access simulates n observed map tasks on file f.
func (fx *scarlettFixture) access(f *dfs.File, n int) {
	for i := 0; i < n; i++ {
		b := f.Blocks[i%len(f.Blocks)]
		fx.s.OnMapTask(0, b, f.ID, 100, false)
	}
}

func TestScarlettReplicatesPopularFiles(t *testing.T) {
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1, AccessesPerReplica: 4, MaxExtraReplicas: 4}
	fx := newScarlettFixture(t, cfg, 1)
	fx.access(fx.hot, 16) // 16/4 = 4 extra replicas desired per block
	fx.access(fx.cold, 1) // below the quota: no extras
	fx.s.Rebalance()

	for _, b := range fx.hot.Blocks {
		if got := fx.nn.NumReplicas(b); got != 3+4 {
			t.Fatalf("hot block %d has %d replicas, want 7", b, got)
		}
	}
	for _, b := range fx.cold.Blocks {
		if got := fx.nn.NumReplicas(b); got != 3 {
			t.Fatalf("cold block %d has %d replicas, want 3", b, got)
		}
	}
	if fx.s.TotalStats().ReplicasCreated != 16 {
		t.Fatalf("created %d", fx.s.TotalStats().ReplicasCreated)
	}
	if fx.s.ExtraNetworkBytes() != 16*100 {
		t.Fatalf("network bytes %d", fx.s.ExtraNetworkBytes())
	}
	if len(fx.s.Errors()) != 0 {
		t.Fatalf("errors: %v", fx.s.Errors())
	}
	if err := fx.nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScarlettAgesOutStalePlacements(t *testing.T) {
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1, AccessesPerReplica: 4, MaxExtraReplicas: 4}
	fx := newScarlettFixture(t, cfg, 2)
	fx.access(fx.hot, 16)
	fx.s.Rebalance()
	if fx.nn.TotalDynamicBytes() == 0 {
		t.Fatal("no placements after first epoch")
	}
	// Next epoch: the hot file went cold, the cold file is now hot.
	fx.access(fx.cold, 16)
	fx.s.Rebalance()
	for _, b := range fx.hot.Blocks {
		if got := fx.nn.NumReplicas(b); got != 3 {
			t.Fatalf("stale hot block %d still has %d replicas", b, got)
		}
	}
	for _, b := range fx.cold.Blocks {
		if got := fx.nn.NumReplicas(b); got != 7 {
			t.Fatalf("newly hot block %d has %d replicas, want 7", b, got)
		}
	}
	if fx.s.TotalStats().Evictions != 16 {
		t.Fatalf("evictions %d, want 16", fx.s.TotalStats().Evictions)
	}
	if err := fx.nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScarlettRespectsBudget(t *testing.T) {
	// Budget for only 3 extra blocks (3 × 100 bytes over 6000 primary
	// bytes => fraction 0.05 of total).
	total := float64(3 * 100)
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 0, AccessesPerReplica: 1, MaxExtraReplicas: 8}
	fx := newScarlettFixture(t, cfg, 3)
	cfg.BudgetFraction = total / float64(fx.nn.TotalPrimaryBytes())
	fx.s = NewScarlett(cfg, fx.nn, nil)
	fx.access(fx.hot, 40)
	fx.s.Rebalance()
	if fx.nn.TotalDynamicBytes() > 300 {
		t.Fatalf("budget exceeded: %d", fx.nn.TotalDynamicBytes())
	}
	if fx.s.TotalStats().ReplicasCreated != 3 {
		t.Fatalf("created %d replicas with budget for 3", fx.s.TotalStats().ReplicasCreated)
	}
}

func TestScarlettSpreadsAcrossLeastLoadedNodes(t *testing.T) {
	// Budget must cover 4 blocks × 7 extras × 100 bytes = 2800 of the
	// 2400 primary bytes, so use fraction 2.
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 2, AccessesPerReplica: 1, MaxExtraReplicas: 7}
	fx := newScarlettFixture(t, cfg, 4)
	fx.access(fx.hot, 10)
	fx.s.Rebalance()
	// Every hot block now on all 10 nodes (3 primaries + 7 extras).
	for _, b := range fx.hot.Blocks {
		if got := fx.nn.NumReplicas(b); got != 10 {
			t.Fatalf("block %d on %d nodes, want 10", b, got)
		}
	}
	// Dynamic bytes roughly even across nodes (least-loaded placement).
	var min, max int64 = 1 << 62, 0
	for n := 0; n < 10; n++ {
		d := fx.nn.DynamicBytesOn(topology.NodeID(n))
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min > 300 {
		t.Fatalf("dynamic load imbalance: min %d max %d", min, max)
	}
}

func TestScarlettEpochTimer(t *testing.T) {
	topo := topology.NewDedicated(5, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 2, stats.NewRNG(5))
	f, _ := createFile(nn, "f", 2, 100)
	eng := sim.NewEngine()
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1, Epoch: 10, AccessesPerReplica: 1, MaxExtraReplicas: 2}
	s := NewScarlett(cfg, nn, eng.Defer)
	for i := 0; i < 5; i++ {
		s.OnMapTask(0, f.Blocks[0], f.ID, 100, false)
	}
	eng.RunUntil(9)
	if nn.NumReplicas(f.Blocks[0]) != 2 {
		t.Fatal("replication before the epoch boundary")
	}
	eng.RunUntil(11)
	if nn.NumReplicas(f.Blocks[0]) <= 2 {
		t.Fatal("no replication after the epoch boundary")
	}
	s.Stop()
	prev := eng.Processed()
	eng.RunUntil(100)
	// Stopped controller schedules no further work beyond the already
	// queued timer, which must be a no-op.
	if nn.CheckInvariants() != nil {
		t.Fatal("invariants broken after stop")
	}
	_ = prev
}

func TestScarlettDefaults(t *testing.T) {
	topo := topology.NewDedicated(3, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 1, stats.NewRNG(6))
	s := NewScarlett(Config{Kind: ScarlettPolicy, BudgetFraction: 0.5}, nn, nil)
	if s.cfg.Epoch <= 0 || s.cfg.AccessesPerReplica <= 0 || s.cfg.MaxExtraReplicas <= 0 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}

func TestScarlettPolicyKindParsing(t *testing.T) {
	if ScarlettPolicy.String() != "scarlett" {
		t.Fatal("kind string wrong")
	}
	for _, sp := range []string{"scarlett", "epoch"} {
		if k, err := ParsePolicyKind(sp); err != nil || k != ScarlettPolicy {
			t.Fatalf("ParsePolicyKind(%s) = %v, %v", sp, k, err)
		}
	}
}

// TestScarlettRegrowsLostReplicas: a node failure takes dynamic replicas
// with it, and the next epoch places them again. The controller counts
// its placements from the name node, so the budget it reports is the
// registry's.
func TestScarlettRegrowsLostReplicas(t *testing.T) {
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1, AccessesPerReplica: 4, MaxExtraReplicas: 4}
	fx := newScarlettFixture(t, cfg, 1)
	fx.access(fx.hot, 16)
	fx.s.Rebalance()

	// Fail a node holding a dynamic hot replica but no hot primary, so the
	// hot blocks keep all three primaries without a repair.
	victim := topology.NodeID(-1)
	for n := topology.NodeID(0); n < 10 && victim < 0; n++ {
		dynamic, primary := false, false
		for _, b := range fx.hot.Blocks {
			if k, ok := fx.nn.ReplicaKindAt(b, n); ok {
				dynamic = dynamic || k == dfs.Dynamic
				primary = primary || k == dfs.Primary
			}
		}
		if dynamic && !primary {
			victim = n
		}
	}
	if victim < 0 {
		t.Fatal("no node holds a dynamic hot replica without a hot primary")
	}
	fx.nn.FailNode(victim)

	fx.access(fx.hot, 16)
	fx.s.Rebalance()
	for _, b := range fx.hot.Blocks {
		if got := fx.nn.NumReplicas(b); got != 7 {
			t.Fatalf("hot block %d has %d replicas after the regrow epoch, want 7", b, got)
		}
	}
	if len(fx.s.Errors()) != 0 {
		t.Fatalf("errors: %v", fx.s.Errors())
	}
	if err := fx.nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScarlettSkipsEpochWhileMasterDown: an epoch boundary on a crashed or
// warming name node returns at once, places nothing and keeps the epoch's
// tallies, which the first epoch after the warm-up then plans from.
func TestScarlettSkipsEpochWhileMasterDown(t *testing.T) {
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1, AccessesPerReplica: 4, MaxExtraReplicas: 4}
	fx := newScarlettFixture(t, cfg, 5)
	fx.nn.EnableJournal(0)
	fx.access(fx.hot, 16)
	if err := fx.nn.Crash(); err != nil {
		t.Fatal(err)
	}
	rebalance := func(state string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fx.s.Rebalance()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("Rebalance on a %s name node did not return", state)
		}
		if got := fx.s.TotalStats().ReplicasCreated; got != 0 {
			t.Fatalf("%s name node: %d replicas created", state, got)
		}
		if len(fx.s.Errors()) != 0 {
			t.Fatalf("%s name node: errors %v", state, fx.s.Errors())
		}
	}
	rebalance("crashed")
	if err := fx.nn.Recover(dfs.RecoverReport); err != nil {
		t.Fatal(err)
	}
	rebalance("warming")
	for n := topology.NodeID(0); n < 10; n++ {
		if _, err := fx.nn.DeliverBlockReport(n); err != nil {
			t.Fatal(err)
		}
	}
	fx.s.Rebalance()
	for _, b := range fx.hot.Blocks {
		if got := fx.nn.NumReplicas(b); got != 7 {
			t.Fatalf("hot block %d has %d replicas after the warm-up, want 7", b, got)
		}
	}
	if err := fx.nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScarlettRejectsMirrorStateImage: the controller's image once also
// carried its own copy of the placements (a used-bytes total and a
// block -> nodes map). Such an image, here one cut before the first
// epoch, fails to decode with snapshot.ErrFormat.
func TestScarlettRejectsMirrorStateImage(t *testing.T) {
	cfg := Config{Kind: ScarlettPolicy, BudgetFraction: 1}
	fx := newScarlettFixture(t, cfg, 7)
	e := snapshot.NewEnc()
	e.I64(fx.s.budget)
	e.I64(0)      // used
	e.I64(0)      // extra network bytes
	e.Bool(false) // stopped
	e.U32(0)      // accesses
	e.U32(0)      // placed
	e.Bool(true)  // grow rule present
	for range 4 {
		e.I64(0) // PolicyStats
	}
	e.U32(0) // errors
	fresh := NewScarlett(cfg, fx.nn, nil)
	if err := fresh.WalkState(snapshot.WalkDec(snapshot.NewDec(e.Data()))); !errors.Is(err, snapshot.ErrFormat) {
		t.Fatalf("decoding a mirror-era image: got %v, want snapshot.ErrFormat", err)
	}
}

// scarlettEpochAllocs reports the allocations of one epoch of a warmed-up
// scarlettBench over nodes nodes and blocks blocks; alternate picks the
// benchmark's alternating hot sets, otherwise every epoch sees the same
// hot set and finds its plan met.
func scarlettEpochAllocs(t *testing.T, nodes, blocks int, alternate bool) float64 {
	sb := newScarlettBench(t, nodes, blocks)
	step := func() {
		if !alternate {
			sb.epoch = 0
		}
		sb.step()
	}
	for range 4 {
		step()
	}
	return testing.AllocsPerRun(10, step)
}

// TestScarlettEpochAllocsIndependentOfSize pins that a node and a block
// cost a Scarlett epoch no allocation: at 20 and 1,000 nodes and at 1,000
// and 10,000 blocks, an epoch allocates nothing, so no scratch is rebuilt
// per epoch either. That holds for a steady-state epoch, which plans,
// sweeps every block and sorts every node, and for one that moves the hot
// set, 140 evictions and 140 placements: at 1,000 nodes some of the
// least-loaded nodes hold no other block, and a per-node list keeps its
// room when a block leaves it.
func TestScarlettEpochAllocsIndependentOfSize(t *testing.T) {
	for _, alternate := range []bool{false, true} {
		for _, shape := range [][2]int{{20, 1000}, {20, 10000}, {1000, 1000}} {
			if got := scarlettEpochAllocs(t, shape[0], shape[1], alternate); got != 0 {
				t.Errorf("alternating %v: an epoch allocates %.0f times at %d nodes and %d blocks, want 0",
					alternate, got, shape[0], shape[1])
			}
		}
	}
}
