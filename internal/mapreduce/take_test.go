package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/topology"
	"dare/internal/workload"
)

// refTakeLocal is the linear reference for TakeLocalBlock: the first live
// pending entry, in seq order, with a replica on node.
func refTakeLocal(j *Job, node topology.NodeID) (dfs.BlockID, bool) {
	for _, e := range j.pending {
		if j.live(e) && j.cluster.NN.HasReplica(e.b, node) {
			return e.b, true
		}
	}
	return 0, false
}

// refTakeRackLocal is the linear reference for TakeRackLocalBlock: the
// first live pending entry, in seq order, with a replica on another node
// of node's rack.
func refTakeRackLocal(j *Job, node topology.NodeID) (dfs.BlockID, bool) {
	topo := j.cluster.Topo
	for _, e := range j.pending {
		if !j.live(e) {
			continue
		}
		for _, n := range topo.RackMembers(topo.Rack(node)) {
			if n != node && j.cluster.NN.HasReplica(e.b, n) {
				return e.b, true
			}
		}
	}
	return 0, false
}

// TestTakeMatchesLinearReference drives one job's inputs through seeded
// random replica churn, on 20 nodes in racks of 5: dynamic replicas land
// and are evicted, nodes fail and rejoin (with their old disk or empty),
// repairs re-replicate, a whole rack fails, and taken blocks are
// requeued. After every step an offer to a random node must take exactly
// the block the linear reference picks, node-local and rack-local.
func TestTakeMatchesLinearReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { takeProperty(t, seed) })
	}
}

func takeProperty(t *testing.T, seed uint64) {
	p := config.CCT()
	p.Slaves = 20
	p.RackSize = 5
	c, err := NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	nn, topo := c.NN, c.Topo
	// The job reads the middle of the middle file, so other blocks sit on
	// both sides of its window in every node's list.
	files, err := nn.CreateFiles([]dfs.FileSpec{{Name: "a", Blocks: 40}, {Name: "b", Blocks: 100}, {Name: "c", Blocks: 40}},
		p.BlockSizeBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob(workload.Job{ID: 0, File: 1, FirstBlock: 20, NumMaps: 60, CPUPerTask: 1}, files[1], c)
	lo, hi := j.inputs()
	rng := rand.New(rand.NewSource(int64(seed)))
	var taken []dfs.BlockID
	lost := make(map[topology.NodeID][]dfs.StaleReplica)
	requeue := func() {
		i := rng.Intn(len(taken))
		j.Requeue(taken[i])
		taken[i] = taken[len(taken)-1]
		taken = taken[:len(taken)-1]
	}
	fail := func(node topology.NodeID) {
		if nn.NodeFailed(node) {
			return
		}
		rep := nn.FailNode(node)
		var stale []dfs.StaleReplica
		for _, b := range rep.LostPrimaries {
			stale = append(stale, dfs.StaleReplica{Block: b, Kind: dfs.Primary})
		}
		for _, b := range rep.LostDynamic {
			stale = append(stale, dfs.StaleReplica{Block: b, Kind: dfs.Dynamic})
		}
		lost[node] = stale
	}
	hits := [2]int{}
	for step := range 4000 {
		node := topology.NodeID(rng.Intn(p.Slaves))
		b := lo + dfs.BlockID(rng.Intn(int(hi-lo)))
		switch r := rng.Intn(100); {
		case step == 2000:
			rack := rng.Intn(topo.Racks())
			for _, n := range topo.RackMembers(rack) {
				fail(n)
			}
		case r < 30:
			_ = nn.AddDynamicReplica(b, node) // refused on a down node or a holder
		case r < 45:
			var evict []topology.NodeID
			nn.ForEachLocation(b, func(n topology.NodeID, k dfs.ReplicaKind) bool {
				if k == dfs.Dynamic {
					evict = append(evict, n)
				}
				return true
			})
			if len(evict) > 0 {
				if err := nn.RemoveDynamicReplica(b, evict[rng.Intn(len(evict))]); err != nil {
					t.Fatal(err)
				}
			}
		case r < 49:
			fail(node)
		case r < 57:
			if nn.NodeFailed(node) {
				stale := lost[node]
				if rng.Intn(2) == 0 {
					stale = nil
				}
				if _, err := nn.ReRegisterNode(node, stale); err != nil {
					t.Fatal(err)
				}
			}
		case r < 62:
			_ = nn.AddPrimaryReplica(b, node) // refused on a down node or a holder
		case r < 67:
			if got, ok := j.TakeAnyBlock(); ok {
				taken = append(taken, got)
			}
		default:
			if len(taken) > 0 {
				requeue()
			}
		}
		for kind, arm := range []struct {
			name      string
			take, ref func(*Job, topology.NodeID) (dfs.BlockID, bool)
		}{
			{"TakeLocalBlock", (*Job).TakeLocalBlock, refTakeLocal},
			{"TakeRackLocalBlock", (*Job).TakeRackLocalBlock, refTakeRackLocal},
		} {
			offer := topology.NodeID(rng.Intn(p.Slaves))
			want, wantOK := arm.ref(j, offer)
			got, ok := arm.take(j, offer)
			if got != want || ok != wantOK {
				t.Fatalf("step %d: %s(%d) = %d, %v; the linear reference takes %d, %v",
					step, arm.name, offer, got, ok, want, wantOK)
			}
			if ok {
				hits[kind]++
				taken = append(taken, got)
			}
		}
		for j.PendingMaps() < 20 && len(taken) > 0 {
			requeue()
		}
	}
	if hits[0] == 0 || hits[1] == 0 {
		t.Fatalf("offers took %d node-local and %d rack-local blocks: the churn never exercised one path", hits[0], hits[1])
	}
}
