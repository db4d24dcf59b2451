package core

import (
	"testing"
	"testing/quick"

	"dare/internal/dfs"
)

func TestGreedyLFUReplicatesRemoteReads(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 1000)
	d := p.OnMapTask(1, 10, 100, false)
	if !d.Replicate || len(d.Evict) != 0 {
		t.Fatalf("expected plain replication, got %+v", d)
	}
	if !p.Contains(1) || p.UsedBytes() != 100 || p.Len() != 1 {
		t.Fatal("state not updated")
	}
}

func TestGreedyLFUEvictsLeastFrequent(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 300)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	p.OnMapTask(3, 30, 100, false)
	// Heat blocks 1 and 3; block 2 stays at frequency 0.
	p.OnMapTask(1, 10, 100, true)
	p.OnMapTask(3, 30, 100, true)
	p.OnMapTask(3, 30, 100, true)
	d := p.OnMapTask(4, 40, 100, false)
	if !d.Replicate || len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected eviction of least-frequent block 2, got %+v", d)
	}
	if c, _ := p.Count(3); c != 2 {
		t.Fatalf("block 3 count %d", c)
	}
}

func TestGreedyLFUTieBreakIsInsertionOrder(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 200)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	// Both at frequency 0: the older insertion (block 1) goes first.
	d := p.OnMapTask(3, 30, 100, false)
	if len(d.Evict) != 1 || d.Evict[0] != 1 {
		t.Fatalf("expected FIFO tie-break eviction of 1, got %+v", d)
	}
}

func TestGreedyLFUSameFileVictimsSkipped(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 200)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 10, 100, false)
	// Incoming block of file 10 cannot evict its own file's replicas.
	d := p.OnMapTask(3, 10, 100, false)
	if d.Replicate {
		t.Fatal("same-file eviction should abandon replication")
	}
	if p.Len() != 2 {
		t.Fatal("set-aside entries lost")
	}
	// A different file's block still evicts the LFU one.
	d = p.OnMapTask(4, 20, 100, false)
	if !d.Replicate || len(d.Evict) != 1 || d.Evict[0] != 1 {
		t.Fatalf("expected eviction of 1, got %+v", d)
	}
	// Block 2 survived the set-aside with its count intact.
	if c, ok := p.Count(2); !ok || c != 0 {
		t.Fatal("set-aside entry corrupted")
	}
}

func TestGreedyLFUFrequencySurvivesSetAside(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 300)
	p.OnMapTask(1, 10, 100, false)
	p.OnMapTask(2, 20, 100, false)
	p.OnMapTask(3, 10, 100, false)
	p.OnMapTask(1, 10, 100, true) // freq(1)=1
	// Insert file-10 block: victims scanned are 2 (freq 0, different file)
	// — blocks 1/3 of file 10 must keep their counts if examined.
	d := p.OnMapTask(4, 10, 100, false)
	if len(d.Evict) != 1 || d.Evict[0] != 2 {
		t.Fatalf("expected eviction of 2, got %+v", d)
	}
	if c, _ := p.Count(1); c != 1 {
		t.Fatalf("block 1 count %d after set-aside", c)
	}
}

func TestGreedyLFUZeroBudget(t *testing.T) {
	p := newCache(GreedyLFUPolicy, 0)
	for i := 0; i < 5; i++ {
		if d := p.OnMapTask(dfs.BlockID(i), dfs.FileID(i), 100, false); d.Replicate {
			t.Fatal("zero budget must never replicate")
		}
	}
	if p.Stats().RemoteSkipped != 5 {
		t.Fatalf("skips %d", p.Stats().RemoteSkipped)
	}
}

func TestGreedyLFUBudgetInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := newCache(GreedyLFUPolicy, 900)
		sizes := map[dfs.BlockID]int64{}
		for _, op := range ops {
			b := dfs.BlockID(op % 40)
			fid := dfs.FileID(op % 6)
			size := int64(op%3)*100 + 100
			d := p.OnMapTask(b, fid, size, op%4 == 0)
			if d.Replicate {
				sizes[b] = size
			}
			for _, v := range d.Evict {
				delete(sizes, v)
			}
			if p.UsedBytes() > p.BudgetBytes() || p.Len() != len(sizes) {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyLFUKindAndParsing(t *testing.T) {
	if GreedyLFUPolicy.String() != "lfu" {
		t.Fatal("kind string wrong")
	}
	if k, err := ParsePolicyKind("lfu"); err != nil || k != GreedyLFUPolicy {
		t.Fatal("parse failed")
	}
	p := newCache(GreedyLFUPolicy, 10)
	if p.Kind() != GreedyLFUPolicy {
		t.Fatal("Kind() wrong")
	}
}
