package runner

import (
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

func TestEvictionStudyShapes(t *testing.T) {
	tbl := mustTable(t, eviction, Params{Jobs: 300, Seed: testSeed})
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows %d, want 6 (2 workloads x 3 policies)", len(tbl.Rows))
	}
	byKey := rowsBy(t, tbl, "wl", "policy")
	get := func(row int, head string) float64 { return num(t, tbl, row, head) }
	for _, wl := range []string{"wl1", "wl2"} {
		lru := byKey[wl+"/lru"]
		lfu := byKey[wl+"/lfu"]
		et := byKey[wl+"/elephanttrap"]
		// At a binding budget the greedy policies churn; ElephantTrap's
		// sampling suppresses both writes and evictions.
		if get(lru, "evictions") == 0 || get(lfu, "evictions") == 0 {
			t.Fatalf("%s: greedy policies did not evict (budget not binding)", wl)
		}
		if get(et, "writes") >= get(lru, "writes") {
			t.Fatalf("%s: ET writes %v not below LRU %v", wl, get(et, "writes"), get(lru, "writes"))
		}
		if get(et, "evictions") >= get(lru, "evictions") {
			t.Fatalf("%s: ET evictions %v not below LRU %v", wl, get(et, "evictions"), get(lru, "evictions"))
		}
		// All three policies deliver useful locality.
		for _, r := range []int{lru, lfu, et} {
			if get(r, "locality") < 0.25 {
				t.Fatalf("%s/%s locality %.3f too low", wl, tbl.Rows[r][1], get(r, "locality"))
			}
		}
		// LFU should be competitive with LRU on these recurrent-popularity
		// workloads (within 15%).
		if get(lfu, "locality") < 0.85*get(lru, "locality") {
			t.Fatalf("%s: LFU locality %.3f far below LRU %.3f", wl, get(lfu, "locality"), get(lru, "locality"))
		}
	}
}

func TestLFUFullRunIntegration(t *testing.T) {
	wl := truncate(workload.WL1(testSeed), 150)
	out, err := Run(Options{
		Profile:   config.CCT(),
		Workload:  wl,
		Scheduler: "fifo",
		Policy:    PolicyFor(core.GreedyLFUPolicy),
		Seed:      testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PolicyName != "lfu" {
		t.Fatalf("policy name %q", out.PolicyName)
	}
	if out.Summary.ReplicasCreated == 0 {
		t.Fatal("LFU created no replicas")
	}
}

func TestRenderEviction(t *testing.T) {
	renders(t, evictionCols, []any{"wl1", "lfu", 0.5, 0.0, int64(0), int64(0)}, "lfu", "evictions")
}
