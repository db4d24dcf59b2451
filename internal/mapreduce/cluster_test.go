package mapreduce

import (
	"math"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/stats"
	"dare/internal/topology"
)

func testProfile() *config.Profile {
	p := config.CCT()
	p.Slaves = 8
	return p
}

func TestNewClusterValidatesProfile(t *testing.T) {
	p := testProfile()
	p.Slaves = 0
	if _, err := NewCluster(p, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestNewClusterSamplesPerNodeBandwidth(t *testing.T) {
	c, err := NewCluster(testProfile(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes %d", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		if n.DiskBW < 145 || n.DiskBW > 168 {
			t.Fatalf("disk BW %v outside CCT range", n.DiskBW)
		}
		if n.FreeMapSlots != c.Profile.MapSlotsPerNode {
			t.Fatal("map slots not initialized")
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	a, _ := NewCluster(testProfile(), 3)
	b, _ := NewCluster(testProfile(), 3)
	for i := range a.Nodes {
		if a.Nodes[i].DiskBW != b.Nodes[i].DiskBW || a.Nodes[i].NetBW != b.Nodes[i].NetBW {
			t.Fatal("cluster build not deterministic")
		}
	}
}

func TestLocalReadTime(t *testing.T) {
	c, _ := NewCluster(testProfile(), 4)
	size := int64(128 * config.MB)
	rt := c.LocalReadTime(0, size)
	want := 128.0 / c.Nodes[0].DiskBW
	if math.Abs(rt-want) > 1e-9 {
		t.Fatalf("local read %v, want %v", rt, want)
	}
}

func TestRemoteReadSlowerThanLocal(t *testing.T) {
	c, _ := NewCluster(testProfile(), 5)
	f, err := CreateFile(c.NN, "f", 1, 128*config.MB)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	var dst topology.NodeID = -1
	for n := 0; n < len(c.Nodes); n++ {
		if !c.NN.HasReplica(b, topology.NodeID(n)) {
			dst = topology.NodeID(n)
			break
		}
	}
	if dst < 0 {
		t.Skip("all nodes hold the block")
	}
	remote, src, err := c.RemoteReadTimeExcluding(b, dst, 128*config.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.NN.HasReplica(b, src) {
		t.Fatal("source does not hold block")
	}
	local := c.LocalReadTime(dst, 128*config.MB)
	if remote <= local {
		t.Fatalf("remote read %v not slower than local %v (CCT net < disk)", remote, local)
	}
}

func TestRemoteReadContention(t *testing.T) {
	c, _ := NewCluster(testProfile(), 6)
	f, _ := CreateFile(c.NN, "f", 1, 128*config.MB)
	b := f.Blocks[0]
	var dst topology.NodeID = -1
	for n := 0; n < len(c.Nodes); n++ {
		if !c.NN.HasReplica(b, topology.NodeID(n)) {
			dst = topology.NodeID(n)
			break
		}
	}
	free, _, err := c.RemoteReadTimeExcluding(b, dst, 128*config.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[dst].ActiveRemoteReads = 3
	busy, _, err := c.RemoteReadTimeExcluding(b, dst, 128*config.MB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if busy <= free {
		t.Fatalf("contended read %v not slower than free %v", busy, free)
	}
}

func TestRemoteReadNoReplicaError(t *testing.T) {
	c, _ := NewCluster(testProfile(), 7)
	if _, _, err := c.RemoteReadTimeExcluding(999, 0, 100, nil); err == nil {
		t.Fatal("missing block should error")
	}
}

func TestChooseSourcePrefersFewestHops(t *testing.T) {
	p := testProfile()
	p.RackSize = 4 // two racks of 4
	c, err := NewCluster(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := CreateFile(c.NN, "f", 20, config.MB)
	// For every block and every non-holding destination, the chosen source
	// must be at minimum hop distance among all replicas.
	for _, b := range f.Blocks {
		for n := 0; n < len(c.Nodes); n++ {
			dst := topology.NodeID(n)
			if c.NN.HasReplica(b, dst) {
				continue
			}
			src, ok := c.chooseSourceExcluding(b, dst, nil)
			if !ok {
				t.Fatal("no source found")
			}
			got := c.Topo.Hops(src, dst)
			c.NN.ForEachLocation(b, func(loc topology.NodeID, _ dfs.ReplicaKind) bool {
				if h := c.Topo.Hops(loc, dst); h < got {
					t.Fatalf("source %d at %d hops but %d at %d hops exists", src, got, loc, h)
				}
				return true
			})
		}
	}
}

func TestDedicatedRunTimeWaves(t *testing.T) {
	c, _ := NewCluster(testProfile(), 9)
	slots := c.TotalMapSlots()
	oneWave := c.DedicatedRunTime(1, 1.0, 0, 0, 0)
	fullWave := c.DedicatedRunTime(slots, 1.0, 0, 0, 0)
	twoWaves := c.DedicatedRunTime(slots+1, 1.0, 0, 0, 0)
	if oneWave != fullWave {
		t.Fatalf("1 task (%v) and %d tasks (%v) should take one wave", oneWave, slots, fullWave)
	}
	if twoWaves <= fullWave {
		t.Fatalf("slots+1 tasks (%v) must take longer than one wave (%v)", twoWaves, fullWave)
	}
	withReduce := c.DedicatedRunTime(1, 1.0, 1, 5.0, 0)
	if withReduce <= oneWave {
		t.Fatal("reduce phase must extend the dedicated run time")
	}
	withOutput := c.DedicatedRunTime(1, 1.0, 1, 5.0, 4)
	if withOutput <= withReduce {
		t.Fatal("output writes must extend the dedicated run time")
	}
}

func TestTaskNoisePositive(t *testing.T) {
	c, _ := NewCluster(testProfile(), 10)
	for i := 0; i < 1000; i++ {
		v := c.taskNoise()
		if v < 0.2 {
			t.Fatalf("noise %v below floor", v)
		}
	}
	// Zero-noise profile yields exactly 1.
	p := testProfile()
	p.TaskNoiseSigma = 0
	c2, _ := NewCluster(p, 11)
	if c2.taskNoise() != 1 {
		t.Fatal("zero sigma should disable noise")
	}
}

func TestTaskNoiseMeanNearOne(t *testing.T) {
	c, _ := NewCluster(testProfile(), 12)
	var s stats.Summary
	for i := 0; i < 50000; i++ {
		s.Add(c.taskNoise())
	}
	s.Finalize()
	if math.Abs(s.Mean-1) > 0.02 {
		t.Fatalf("noise mean %v, want ~1 (unbiased)", s.Mean)
	}
}

func TestLocalityString(t *testing.T) {
	if NodeLocal.String() != "node-local" || RackLocal.String() != "rack-local" || Remote.String() != "remote" {
		t.Fatal("locality strings wrong")
	}
}
