package core

import (
	"testing"
	"testing/quick"

	"dare/internal/dfs"
)

func TestGreedyLRUReplicatesRemoteReads(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 1000)
	d := p.OnMapTask(1, 10, 100, false)
	if !d.Replicate || len(d.Evict) != 0 {
		t.Fatalf("expected plain replication, got %+v", d)
	}
	if !p.Contains(1) || p.UsedBytes() != 100 {
		t.Fatal("state not updated")
	}
	if p.Stats().ReplicasCreated != 1 {
		t.Fatal("stats not updated")
	}
}

func TestGreedyLRUIgnoresLocalReads(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 1000)
	d := p.OnMapTask(1, 10, 100, true)
	if d.Replicate || p.Contains(1) {
		t.Fatal("local read must not replicate")
	}
}

func TestGreedyLRUEvictsLeastRecentlyUsed(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 300)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	p.OnMapTask(3, 30, 100, false)
	// Budget full. Block 1 is LRU; inserting 4 must evict 1.
	d := p.OnMapTask(4, 40, 100, false)
	if !d.Replicate || len(d.Evict) != 1 || d.Evict[0] != 1 {
		t.Fatalf("expected eviction of block 1, got %+v", d)
	}
	if p.Contains(1) || !p.Contains(4) {
		t.Fatal("victim still tracked or new block missing")
	}
	if p.UsedBytes() != 300 {
		t.Fatalf("used %d, want 300", p.UsedBytes())
	}
}

func TestGreedyLRURefreshChangesVictim(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 300)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	p.OnMapTask(3, 30, 100, false)
	// Local read of block 1 refreshes it; block 2 becomes LRU.
	p.OnMapTask(1, 10, 100, true)
	d := p.OnMapTask(4, 40, 100, false)
	if len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected eviction of block 2 after refresh, got %+v", d)
	}
	if p.Stats().Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
}

func TestGreedyLRUSkipsSameFileVictims(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 200)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 10, 100, false)
	// Budget full with two blocks of file 10. Incoming block of file 10
	// must not evict same-file victims: replication is abandoned.
	d := p.OnMapTask(3, 10, 100, false)
	if d.Replicate {
		t.Fatal("replication should be abandoned when all victims share the file")
	}
	if p.Stats().RemoteSkipped != 1 {
		t.Fatal("skip not counted")
	}
	// A block of a different file evicts the LRU (block 1).
	d = p.OnMapTask(4, 20, 100, false)
	if !d.Replicate || len(d.Evict) != 1 || d.Evict[0] != 1 {
		t.Fatalf("expected eviction of block 1, got %+v", d)
	}
}

func TestGreedyLRUSameFileSkippedInPlace(t *testing.T) {
	// Victim scan must skip same-file entries without evicting them.
	p := newCache(GreedyLRUPolicy, 300)
	p.OnMapTask(1, 10, 100, false) // same file as incoming
	p.OnMapTask(2, 20, 100, false)
	p.OnMapTask(3, 30, 100, false)
	d := p.OnMapTask(4, 10, 100, false)
	if !d.Replicate || len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected skip of same-file LRU then eviction of 2, got %+v", d)
	}
	if !p.Contains(1) {
		t.Fatal("same-file block 1 must survive the scan")
	}
}

func TestGreedyLRUZeroBudgetNeverReplicates(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 0)
	for i := 0; i < 10; i++ {
		d := p.OnMapTask(dfs.BlockID(i), dfs.FileID(i), 100, false)
		if d.Replicate {
			t.Fatal("zero budget must not replicate")
		}
	}
	if p.Stats().RemoteSkipped != 10 {
		t.Fatalf("skips %d", p.Stats().RemoteSkipped)
	}
}

func TestGreedyLRURemoteReadOfTrackedBlockRefreshes(t *testing.T) {
	p := newCache(GreedyLRUPolicy, 500)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	// Remote read of already-tracked block 1: refresh, not duplicate.
	d := p.OnMapTask(1, 10, 100, false)
	if d.Replicate {
		t.Fatal("tracked block must not be re-replicated")
	}
	if p.UsedBytes() != 200 || p.Len() != 2 {
		t.Fatal("duplicate insertion corrupted state")
	}
	// Block 2 is now LRU.
	p2 := newCache(GreedyLRUPolicy, 200)
	p2.OnMapTask(1, 10, 100, false)
	p2.OnMapTask(2, 20, 100, false)
	p2.OnMapTask(1, 10, 100, false) // refresh 1
	d = p2.OnMapTask(3, 30, 100, false)
	if len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected eviction of 2, got %+v", d)
	}
}

func TestGreedyLRUBudgetInvariantProperty(t *testing.T) {
	// Under any operation sequence, used <= budget and used equals the sum
	// of tracked block sizes.
	f := func(ops []uint16) bool {
		p := newCache(GreedyLRUPolicy, 1000)
		sizes := map[dfs.BlockID]int64{}
		for _, op := range ops {
			b := dfs.BlockID(op % 50)
			fid := dfs.FileID(op % 7)
			size := int64(op%4)*50 + 50
			local := op%3 == 0
			d := p.OnMapTask(b, fid, size, local)
			if d.Replicate {
				sizes[b] = size
			}
			for _, v := range d.Evict {
				delete(sizes, v)
			}
			if p.UsedBytes() > p.BudgetBytes() {
				return false
			}
			var sum int64
			for _, s := range sizes {
				sum += s
			}
			if sum != p.UsedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
