package mapreduce_test

import (
	"fmt"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/workload"
)

// setupProfile is a kind ("cct" or "ec2") of cluster with the given
// node count; profiles of one kind differ only in Slaves.
func setupProfile(kind string, nodes int) *config.Profile {
	p := config.CCT()
	if kind == "ec2" {
		p = config.EC2()
	} else {
		p.RackSize = 40
	}
	p.Slaves = nodes
	return p
}

// loadedNameNode builds a cluster of p holding one block per node (so
// about ReplicationFactor replicas per node), and returns its name node
// with the file list and block popularity that PlacementCV reads.
func loadedNameNode(t testing.TB, p *config.Profile) (*dfs.NameNode, []*dfs.File, [][]int) {
	c, err := mapreduce.NewCluster(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mapreduce.CreateFile(c.NN, "input", p.Slaves, p.BlockSizeBytes())
	if err != nil {
		t.Fatal(err)
	}
	pop := make([]int, p.Slaves)
	for i := range pop {
		pop[i] = 1 + i%5
	}
	return c.NN, []*dfs.File{f}, [][]int{pop}
}

// setupAllocs counts the allocations of building a cluster of p, starting
// its heartbeats and computing the placement CV of a loaded name node of
// the same shape.
func setupAllocs(t testing.TB, p *config.Profile) float64 {
	nn, files, pop := loadedNameNode(t, p)
	return testing.AllocsPerRun(3, func() {
		c, err := mapreduce.NewCluster(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		mapreduce.StartHeartbeats(c, func(*mapreduce.Node) {})
		metrics.PlacementCV(nn, files, pop)
	})
}

// TestSetupAllocsIndependentOfNodes pins that a node costs no allocation:
// building a cluster, starting its heartbeats and computing its placement
// CV allocate the same number of times at 1,000 and at 10,000 nodes.
func TestSetupAllocsIndependentOfNodes(t *testing.T) {
	for _, kind := range []string{"cct", "ec2"} {
		small := setupAllocs(t, setupProfile(kind, 1000))
		large := setupAllocs(t, setupProfile(kind, 10000))
		if small != large {
			t.Errorf("%s: setup allocates %.0f times at 1,000 nodes and %.0f at 10,000", kind, small, large)
		}
	}
}

// BenchmarkClusterSetup10k measures building a 10,000-node cluster,
// starting its heartbeats and computing the placement CV of a loaded
// name node of the same shape.
func BenchmarkClusterSetup10k(b *testing.B) {
	p := setupProfile("cct", 10000)
	nn, files, pop := loadedNameNode(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mapreduce.NewCluster(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		mapreduce.StartHeartbeats(c, func(*mapreduce.Node) {})
		metrics.PlacementCV(nn, files, pop)
	}
}

// genesisWorkload is a job-free workload of four files holding blocks
// blocks in all, so block count and file count vary independently.
func genesisWorkload(blocks int) *workload.Workload {
	wl := &workload.Workload{Files: make([]workload.FileSpec, 4)}
	for i := range wl.Files {
		wl.Files[i] = workload.FileSpec{Name: fmt.Sprintf("input-%d", i), Blocks: blocks / 4}
	}
	wl.Files[0].Blocks += blocks % 4
	return wl
}

// genesisAllocs counts the allocations of building a cluster of p and
// loading a population of blocks blocks into it: NewTracker's genesis,
// which places every block's primaries.
func genesisAllocs(t testing.TB, p *config.Profile, blocks int) float64 {
	wl := genesisWorkload(blocks)
	return testing.AllocsPerRun(3, func() {
		c, err := mapreduce.NewCluster(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mapreduce.NewTracker(c, wl, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGenesisAllocsIndependentOfSize pins that a block costs no
// allocation at genesis: building a cluster and placing its file
// population allocate the same number of times at 1,000 and at 10,000
// blocks, and at 1,000 and at 10,000 nodes.
func TestGenesisAllocsIndependentOfSize(t *testing.T) {
	for _, kind := range []string{"cct", "ec2"} {
		base := genesisAllocs(t, setupProfile(kind, 1000), 1000)
		for _, shape := range [][2]int{{1000, 10000}, {10000, 1000}} {
			if got := genesisAllocs(t, setupProfile(kind, shape[0]), shape[1]); got != base {
				t.Errorf("%s: genesis allocates %.0f times at %d nodes and %d blocks, %.0f at 1,000 and 1,000",
					kind, got, shape[0], shape[1], base)
			}
		}
	}
}

// BenchmarkGenesis10k measures loading a 10,000-block file population
// into a 10,000-node cluster (NewTracker's genesis); building the cluster
// is outside the timer.
func BenchmarkGenesis10k(b *testing.B) {
	p := setupProfile("cct", 10000)
	wl := genesisWorkload(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := mapreduce.NewCluster(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := mapreduce.NewTracker(c, wl, nil); err != nil {
			b.Fatal(err)
		}
	}
}
