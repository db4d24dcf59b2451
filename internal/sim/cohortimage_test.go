package sim

import (
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"dare/internal/snapshot"
)

// goldenTicker is the cohort ticker of TestCohortImageGolden: two cohorts
// on a one-second grid, cohort 0 holding members 0..69 on phase 0 and
// cohort 1 members 70 and 71 on phase 0.5. Every member logs its firings.
// It is the test's one seam onto the ticker API, so the script and the
// golden bytes stay the same whatever the ticker's representation.
type goldenTicker struct{ ct *CohortTicker }

func newGoldenTicker(e *Engine, log *[]firing) *goldenTicker {
	cohortOf := make([]int, 72)
	cohortOf[70], cohortOf[71] = 1, 1
	ct := NewCohortTicker(e, 1, []Time{0, 0.5}, cohortOf, func(id int) { *log = append(*log, firing{e.Now(), id}) })
	for id := range cohortOf {
		ct.Add(id)
	}
	return &goldenTicker{ct}
}

func (g *goldenTicker) stop(id int)                   { g.ct.Stop(id) }
func (g *goldenTicker) resume(id int)                 { g.ct.Resume(id) }
func (g *goldenTicker) active(id int) bool            { return g.ct.Active(id) }
func (g *goldenTicker) slots(c int) int               { return len(g.ct.cohorts[c].slots) }
func (g *goldenTicker) walk(w *snapshot.Walker) error { return g.ct.WalkState(w) }

// TestCohortImageGolden pins the bytes of a cohort section. The image is
// cut at t=3, between a Resume and the cohort tick at that same instant,
// after a script that leaves every slot shape in it: a compaction (64
// stops among 70 members), tombstones behind it, a member resumed at the
// tail, and a member joined exactly at the pending tick's instant. The
// image must match testdata/cohort_image.hex byte for byte, and a fresh
// ticker restored from it must fire exactly what the uninterrupted run
// fires.
func TestCohortImageGolden(t *testing.T) {
	var srcLog []firing
	src := NewEngine()
	g := newGoldenTicker(src, &srcLog)
	src.At(1.2, func() {
		for id := 0; id < 64; id++ {
			g.stop(id)
		}
	})
	src.At(1.7, func() { g.stop(65); g.stop(67); g.stop(71) })
	src.At(2.3, func() { g.resume(3); g.resume(71) })
	src.At(3, func() { g.resume(10) }) // ahead of cohort 0's tick at t=3
	src.RunUntil(2.9)
	if !step(src) || src.Now() != 3 || !g.active(10) {
		t.Fatal("the resume did not run first at t=3")
	}
	if n := g.slots(0); n != 8 {
		t.Fatalf("cohort 0 has %d slots, want 8 (6 after compaction, two resumed)", n)
	}

	enc := snapshot.NewEnc()
	if err := g.walk(snapshot.WalkEnc(enc)); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(enc.Data())
	raw, err := os.ReadFile("testdata/cohort_image.hex")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Fatalf("cohort image changed:\n got %s\nwant %s", got, want)
	}

	var dstLog []firing
	dst := NewEngine()
	h := newGoldenTicker(dst, &dstLog)
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	if err := h.walk(snapshot.WalkDec(snapshot.NewDec(enc.Data()))); err != nil {
		t.Fatal(err)
	}
	dst.FinishRestore()
	dstLog = dstLog[:0]
	srcLog = srcLog[:0]
	src.RunUntil(8)
	dst.RunUntil(8)
	if fmt.Sprint(dstLog) != fmt.Sprint(srcLog) {
		t.Fatalf("restored run fired\n%v\nuninterrupted run fired\n%v", dstLog, srcLog)
	}
	if src.Processed() != dst.Processed() || src.Seq() != dst.Seq() {
		t.Fatalf("restored run processed %d events (seq %d), uninterrupted %d (seq %d)",
			dst.Processed(), dst.Seq(), src.Processed(), src.Seq())
	}
	if srcLog[0] != (firing{3, 64}) {
		t.Fatalf("the t=3 sweep opened with %v, want member 64", srcLog[0])
	}
	for _, f := range srcLog {
		if f == (firing{3, 10}) {
			t.Fatal("member 10 fired at the instant it resumed")
		}
	}
}
