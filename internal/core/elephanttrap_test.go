package core

import (
	"testing"
	"testing/quick"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/stats"
)

func newET(p float64, threshold, budget int64, seed uint64) *ReplicaCache {
	rules := withBuiltins(ElephantTrapPolicy, p, threshold, policy.ReplicationRules{}, stats.NewRNG(seed))
	return newReplicaCache(ElephantTrapPolicy, budget, rules, nil)
}

func TestElephantTrapSamplingProbability(t *testing.T) {
	// With p = 0.3, about 30% of remote reads are captured while the
	// budget is unconstrained.
	et := newET(0.3, 1, 1<<40, 1)
	const n = 20000
	for i := 0; i < n; i++ {
		et.OnMapTask(dfs.BlockID(i), dfs.FileID(i), 100, false)
	}
	rate := float64(et.Stats().ReplicasCreated) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("capture rate %v, want ~0.3", rate)
	}
}

func TestElephantTrapPOneCapturesAll(t *testing.T) {
	et := newET(1, 1, 1<<40, 2)
	for i := 0; i < 100; i++ {
		d := et.OnMapTask(dfs.BlockID(i), dfs.FileID(i), 100, false)
		if !d.Replicate {
			t.Fatal("p=1 must capture every remote read with free budget")
		}
	}
}

func TestElephantTrapPZeroCapturesNothing(t *testing.T) {
	et := newET(0, 1, 1<<40, 3)
	for i := 0; i < 100; i++ {
		if d := et.OnMapTask(dfs.BlockID(i), dfs.FileID(i), 100, false); d.Replicate {
			t.Fatal("p=0 must never replicate")
		}
	}
	if et.Stats().RemoteSkipped != 100 {
		t.Fatalf("skips %d", et.Stats().RemoteSkipped)
	}
}

func TestElephantTrapLocalHitIncrementsCount(t *testing.T) {
	et := newET(1, 1, 1<<40, 4)
	et.OnMapTask(7, 1, 100, false) // insert, count 0
	if c, ok := et.Count(7); !ok || c != 0 {
		t.Fatalf("initial count %d ok=%v", c, ok)
	}
	et.OnMapTask(7, 1, 100, true)
	et.OnMapTask(7, 1, 100, true)
	if c, _ := et.Count(7); c != 2 {
		t.Fatalf("count %d, want 2", c)
	}
	if et.Stats().Refreshes != 2 {
		t.Fatal("refreshes not counted")
	}
}

func TestElephantTrapLocalHitOfUntrackedBlockIgnored(t *testing.T) {
	et := newET(1, 1, 1<<40, 5)
	et.OnMapTask(7, 1, 100, true) // not tracked: primary-replica local read
	if et.Len() != 0 || et.Stats().Refreshes != 0 {
		t.Fatal("untracked local read must not create state")
	}
}

func TestElephantTrapEvictsColdBlock(t *testing.T) {
	et := newET(1, 1, 300, 6)
	et.OnMapTask(1, 10, 100, false)
	et.OnMapTask(2, 20, 100, false)
	et.OnMapTask(3, 30, 100, false)
	// All counts are 0 < threshold 1: the block at the eviction pointer
	// (front, block 1) is the victim.
	d := et.OnMapTask(4, 40, 100, false)
	if !d.Replicate || len(d.Evict) != 1 {
		t.Fatalf("expected one eviction, got %+v", d)
	}
	if d.Evict[0] != 1 {
		t.Fatalf("victim %d, want 1 (eviction pointer start)", d.Evict[0])
	}
	if et.UsedBytes() != 300 {
		t.Fatalf("used %d", et.UsedBytes())
	}
}

func TestElephantTrapAgingHalvesCounts(t *testing.T) {
	et := newET(1, 1, 200, 7)
	et.OnMapTask(1, 10, 100, false)
	et.OnMapTask(2, 20, 100, false)
	// Pump block 1's count to 3 via local hits.
	for i := 0; i < 3; i++ {
		et.OnMapTask(1, 10, 100, true)
	}
	// Insert block 3: scan starts at 1 (count 3 >= 1, halve to 1, advance),
	// then 2 (count 0 < 1): 2 is the victim.
	d := et.OnMapTask(3, 30, 100, false)
	if len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected eviction of 2, got %+v", d)
	}
	if c, _ := et.Count(1); c != 1 {
		t.Fatalf("block 1 count %d after halving, want 1", c)
	}
}

func TestElephantTrapHotRingAbandonsReplication(t *testing.T) {
	// Every tracked block is too hot (count >= threshold even after one
	// halving pass): the aging sweep finds no victim, no replication.
	et := newET(1, 1, 200, 8)
	et.OnMapTask(1, 10, 100, false)
	et.OnMapTask(2, 20, 100, false)
	for i := 0; i < 8; i++ {
		et.OnMapTask(1, 10, 100, true)
		et.OnMapTask(2, 20, 100, true)
	}
	d := et.OnMapTask(3, 30, 100, false)
	if d.Replicate {
		t.Fatal("hot ring must abandon replication")
	}
	if et.Len() != 2 {
		t.Fatal("hot blocks must survive")
	}
	// Counts were halved during the failed sweep (competitive aging).
	c1, _ := et.Count(1)
	c2, _ := et.Count(2)
	if c1 != 4 || c2 != 4 {
		t.Fatalf("counts after sweep %d,%d; want 4,4", c1, c2)
	}
}

func TestElephantTrapSameFileVictimAbandons(t *testing.T) {
	et := newET(1, 1, 100, 9)
	et.OnMapTask(1, 10, 100, false)
	// Incoming block of the same file 10: victim (block 1) shares the
	// file, so the algorithm returns null and does not replicate.
	d := et.OnMapTask(2, 10, 100, false)
	if d.Replicate || len(d.Evict) != 0 {
		t.Fatalf("same-file victim must abandon, got %+v", d)
	}
	if !et.Contains(1) {
		t.Fatal("block 1 must survive")
	}
}

func TestElephantTrapRemoteReadOfTrackedBlockCounts(t *testing.T) {
	et := newET(1, 1, 1000, 10)
	et.OnMapTask(1, 10, 100, false)
	d := et.OnMapTask(1, 10, 100, false)
	if d.Replicate {
		t.Fatal("tracked block must not be re-replicated")
	}
	if c, _ := et.Count(1); c != 1 {
		t.Fatalf("count %d, want 1", c)
	}
}

func TestElephantTrapCountsNeverNegativeProperty(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		et := newET(0.7, 2, 800, seed)
		for _, op := range ops {
			b := dfs.BlockID(op % 30)
			fid := dfs.FileID(op % 5)
			et.OnMapTask(b, fid, 100, op%2 == 0)
			if c, ok := et.Count(b); ok && c < 0 {
				return false
			}
			if et.UsedBytes() > et.BudgetBytes() || et.UsedBytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestElephantTrapTracksUsedBytesExactly(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		et := newET(0.5, 1, 600, seed)
		sizes := map[dfs.BlockID]int64{}
		for _, op := range ops {
			b := dfs.BlockID(op % 40)
			fid := dfs.FileID(op % 6)
			size := int64(op%3)*100 + 100
			d := et.OnMapTask(b, fid, size, op%4 == 0)
			if d.Replicate {
				sizes[b] = size
			}
			for _, v := range d.Evict {
				delete(sizes, v)
			}
		}
		var sum int64
		for _, s := range sizes {
			sum += s
		}
		return sum == et.UsedBytes() && et.Len() == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestElephantTrapParamClamping(t *testing.T) {
	et := newET(-0.5, -3, 100, 1)
	if d := et.OnMapTask(1, 1, 50, false); d.Replicate {
		t.Fatal("clamped p=0 must not replicate")
	}
	et2 := newET(1.5, 1, 100, 1)
	if d := et2.OnMapTask(1, 1, 50, false); !d.Replicate {
		t.Fatal("clamped p=1 must replicate")
	}
}

func TestElephantTrapInsertBeforeEvictionPointer(t *testing.T) {
	// After an eviction established a pointer, a new insertion goes right
	// before the pointer, making it the last examined in the next sweep.
	et := newET(1, 1, 200, 11)
	et.OnMapTask(1, 10, 100, false)
	et.OnMapTask(2, 20, 100, false)
	et.OnMapTask(3, 30, 100, false) // evicts 1, pointer now at 2
	// Heat up 2 and 3 is cold; insert 4 -> sweep from pointer.
	et.OnMapTask(2, 20, 100, true)
	d := et.OnMapTask(4, 40, 100, false)
	// Sweep: 2 has count 1 >= 1 -> halve to 0, advance; 3 count 0 -> victim.
	if len(d.Evict) != 1 || d.Evict[0] != 3 {
		t.Fatalf("expected eviction of 3, got %+v", d)
	}
}

func TestPolicyKindString(t *testing.T) {
	if NonePolicy.String() != "vanilla" || GreedyLRUPolicy.String() != "lru" || ElephantTrapPolicy.String() != "elephanttrap" {
		t.Fatal("PolicyKind strings wrong")
	}
	for _, s := range []string{"vanilla", "none", "off", "lru", "greedy", "elephanttrap", "et", "probabilistic"} {
		if _, err := ParsePolicyKind(s); err != nil {
			t.Errorf("ParsePolicyKind(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicyKind("bogus"); err == nil {
		t.Fatal("bogus policy must fail to parse")
	}
}

func TestNonePolicy(t *testing.T) {
	p := newCache(NonePolicy, 0)
	d := p.OnMapTask(1, 1, 100, false)
	if d.Replicate || len(d.Evict) != 0 {
		t.Fatal("none policy must do nothing")
	}
	if p.Contains(1) || p.UsedBytes() != 0 || p.BudgetBytes() != 0 {
		t.Fatal("none policy must hold no state")
	}
	if p.Stats().RemoteSkipped != 1 {
		t.Fatal("remote skip should be counted")
	}
	if p.Kind() != NonePolicy {
		t.Fatal("kind mismatch")
	}
}
