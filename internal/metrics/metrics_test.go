package metrics

import (
	"math"
	"testing"

	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/stats"
	"dare/internal/topology"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, core.PolicyStats{})
	if s.Jobs != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	results := []mapreduce.Result{
		{ID: 0, NumMaps: 4, Local: 4, Turnaround: 10, Dedicated: 10, MapTimeSum: 8, Finish: 20},
		{ID: 1, NumMaps: 4, Local: 0, Rack: 2, Remote: 2, Turnaround: 40, Dedicated: 10, MapTimeSum: 16, Finish: 50},
	}
	s := Summarize(results, core.PolicyStats{ReplicasCreated: 6, Evictions: 2})
	if s.Jobs != 2 {
		t.Fatalf("jobs %d", s.Jobs)
	}
	if s.TaskLocality != 0.5 {
		t.Fatalf("task locality %v", s.TaskLocality)
	}
	if s.JobLocality != 0.5 {
		t.Fatalf("job locality %v", s.JobLocality)
	}
	if s.RackFraction != 0.25 || s.RemoteFraction != 0.25 {
		t.Fatalf("rack/remote %v/%v", s.RackFraction, s.RemoteFraction)
	}
	if math.Abs(s.GMTT-20) > 1e-9 { // sqrt(10*40)
		t.Fatalf("GMTT %v, want 20", s.GMTT)
	}
	if math.Abs(s.MeanSlowdown-2.5) > 1e-9 { // (1+4)/2
		t.Fatalf("slowdown %v", s.MeanSlowdown)
	}
	if math.Abs(s.MeanMapTime-3) > 1e-9 { // 24/8
		t.Fatalf("map time %v", s.MeanMapTime)
	}
	if s.Makespan != 50 {
		t.Fatalf("makespan %v", s.Makespan)
	}
	if s.BlocksPerJob != 3 {
		t.Fatalf("blocks/job %v", s.BlocksPerJob)
	}
	if s.DiskWrites != 6 || s.Evictions != 2 {
		t.Fatalf("policy counters %+v", s)
	}
}

func TestPopularityIndices(t *testing.T) {
	topo := topology.NewDedicated(4, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 1, stats.NewRNG(1))
	f, err := createFile(nn, "f", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockPop := [][]int{{5, 0, 2}}
	pis := PopularityIndices(nn, []*dfs.File{f}, blockPop)
	if len(pis) != 4 {
		t.Fatalf("len %d", len(pis))
	}
	// Total PI across nodes must equal sum(size*pop) per replica; with
	// replication 1 each block contributes exactly once.
	var total float64
	for _, pi := range pis {
		total += pi
	}
	want := 10.0*5 + 10*0 + 10*2
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("total PI %v, want %v", total, want)
	}
}

func TestPlacementCVDropsWithBalancedReplicas(t *testing.T) {
	// A hot block replicated everywhere flattens the PI distribution.
	topo := topology.NewDedicated(5, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 1, stats.NewRNG(2))
	f, _ := createFile(nn, "f", 1, 100)
	blockPop := [][]int{{50}}
	before := PlacementCV(nn, []*dfs.File{f}, blockPop)
	for n := 0; n < 5; n++ {
		node := topology.NodeID(n)
		if !nn.HasReplica(f.Blocks[0], node) {
			if err := nn.AddDynamicReplica(f.Blocks[0], node); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := PlacementCV(nn, []*dfs.File{f}, blockPop)
	if after >= before {
		t.Fatalf("cv before %v after %v; replication everywhere must flatten PI", before, after)
	}
	if after != 0 {
		t.Fatalf("fully uniform placement should have cv 0, got %v", after)
	}
}

func TestPlacementCVHandlesZeroPopularity(t *testing.T) {
	topo := topology.NewDedicated(3, 0, stats.Constant{V: 0})
	nn := dfs.NewNameNode(topo, 1, stats.NewRNG(3))
	f, _ := createFile(nn, "f", 2, 10)
	cv := PlacementCV(nn, []*dfs.File{f}, [][]int{{0, 0}})
	if cv != 0 {
		t.Fatalf("all-zero popularity should produce cv 0, got %v", cv)
	}
}

func TestLocalityTimeline(t *testing.T) {
	results := []mapreduce.Result{
		{NumMaps: 2, Local: 0, Remote: 2},
		{NumMaps: 2, Local: 1, Remote: 1},
		{NumMaps: 2, Local: 2},
		{NumMaps: 2, Local: 2},
	}
	tl := LocalityTimeline(results, 2)
	if len(tl) != 2 {
		t.Fatalf("timeline %v", tl)
	}
	if math.Abs(tl[0]-0.25) > 1e-9 || math.Abs(tl[1]-1.0) > 1e-9 {
		t.Fatalf("timeline %v, want [0.25 1.0]", tl)
	}
	if LocalityTimeline(nil, 4) != nil {
		t.Fatal("empty results should yield nil")
	}
	if LocalityTimeline(results, 0) != nil {
		t.Fatal("zero buckets should yield nil")
	}
	// n larger than results clamps.
	if got := LocalityTimeline(results[:2], 10); len(got) != 2 {
		t.Fatalf("clamped timeline %v", got)
	}
}

// createFile creates one file of blocks blocks of blockSize bytes on nn at time 0
// through CreateFiles.
func createFile(nn *dfs.NameNode, name string, blocks int, blockSize int64) (*dfs.File, error) {
	files, err := nn.CreateFiles([]dfs.FileSpec{{Name: name, Blocks: blocks}}, blockSize, 0)
	if err != nil {
		return nil, err
	}
	return files[0], nil
}
