package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"dare/internal/snapshot"
)

// testTag is a minimal serializable tag carrying one integer payload.
type testTag struct{ v int64 }

func (*testTag) TagKind() uint16               { return 7 }
func (tt *testTag) WalkTag(w *snapshot.Walker) { w.I64(&tt.v) }

// memberIDs maps each handle to its index, the identity Cohort.WalkState
// encodes.
func memberIDs(ms []*CohortMember) map[*CohortMember]int64 {
	ids := make(map[*CohortMember]int64, len(ms))
	for i, m := range ms {
		ids[m] = int64(i)
	}
	return ids
}

// drainOrder runs the engine to completion and returns the firing order.
func drainOrder(e *Engine, order *[]int64) []int64 {
	*order = (*order)[:0]
	e.RunUntil(math.Inf(1))
	return *order
}

// TestPendingRoundTrip: a pending set holding genesis events, tagged
// runtime events, an owned event and far-future events round-trips
// through WalkPending with identical firing order.
func TestPendingRoundTrip(t *testing.T) {
	var order []int64
	note := func(v int64) func() { return func() { order = append(order, v) } }

	build := func() (*Engine, uint64) {
		e := NewEngine()
		e.Defer(1, note(1))   // genesis, kept
		e.Defer(2, note(2))   // genesis, will be "already fired" (dropped)
		e.Defer(1e4, note(3)) // genesis, far future
		watermark := e.Seq()
		e.DeferTag(3, &testTag{v: 4}, note(4))   // tagged runtime event
		e.DeferTag(2e4, &testTag{v: 5}, note(5)) // tagged, far future
		e.ScheduleTag(5, Owned, note(6))         // owned: skipped by WalkPending
		return e, watermark
	}

	src, wm := build()
	enc := snapshot.NewEnc()
	if err := src.WalkPending(snapshot.WalkEnc(enc), wm, nil); err != nil {
		t.Fatal(err)
	}

	// Rebuild deterministically, then restore: drop genesis event 2 (as if
	// the image had been cut after it fired) by re-encoding without it.
	// Here the image holds all three genesis refs, so all three are kept.
	dst, _ := build()
	dst.BeginRestore(0, src.Seq(), 0)
	// The owned event's owner restores it explicitly, before the pending
	// walk leaves restore mode.
	dst.RestoreEvent(5, ownedSeqOf(t, src), Owned, func() { order = append(order, 6) })
	tags := map[uint64]int64{}
	err := dst.WalkPending(snapshot.WalkDec(snapshot.NewDec(enc.Data())), 0, func(kind uint16, when Time, seq uint64, payload *snapshot.Dec) error {
		if kind != 7 {
			return errors.New("unexpected kind")
		}
		tag := new(testTag)
		tag.WalkTag(snapshot.WalkDec(payload))
		v := tag.v
		tags[seq] = v
		dst.RestoreEvent(when, seq, tag, func() { order = append(order, v) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dst.restoreMap != nil {
		t.Fatal("the pending walk left the engine in restore mode")
	}
	if len(tags) != 2 {
		t.Fatalf("decoded %d tagged events, want 2", len(tags))
	}

	want := drainOrder(src, &order)
	wantCopy := append([]int64(nil), want...)
	got := drainOrder(dst, &order)
	if len(got) != len(wantCopy) {
		t.Fatalf("restored run fired %d events, original %d", len(got), len(wantCopy))
	}
	for i := range got {
		if got[i] != wantCopy[i] {
			t.Fatalf("firing order diverges at %d: got %v, want %v", i, got, wantCopy)
		}
	}
}

// ownedSeqOf digs out the seq of the single Owned-tagged event in an
// engine built by the test's build() helper (it was the last scheduled).
func ownedSeqOf(t *testing.T, e *Engine) uint64 {
	t.Helper()
	var seq uint64
	found := false
	e.q.each(func(ev *Event) {
		if ev.tag == Owned {
			seq = ev.seq
			found = true
		}
	})
	if !found {
		t.Fatal("no Owned event pending")
	}
	return seq
}

// TestEncodePendingRejectsUntagged: a runtime-created event with no tag
// cannot ride a state image — typed error, not silent omission.
func TestEncodePendingRejectsUntagged(t *testing.T) {
	e := NewEngine()
	e.Defer(1, func() {})
	wm := e.Seq()
	e.Defer(2, func() {}) // runtime, untagged
	var ue *UntaggedEventError
	if err := e.WalkPending(snapshot.WalkEnc(snapshot.NewEnc()), wm, nil); !errors.As(err, &ue) {
		t.Fatalf("want UntaggedEventError, got %v", err)
	}
}

// TestKeepGenesisRejectsUnknownSeq: an image naming a genesis event the
// reconstruction did not schedule is a hard error (the spec diverged).
func TestKeepGenesisRejectsUnknownSeq(t *testing.T) {
	e := NewEngine()
	e.BeginRestore(0, 10, 0)
	if err := e.KeepGenesis(99); err == nil {
		t.Fatal("KeepGenesis of an unknown seq succeeded")
	}
	e.FinishRestore()
}

// TestFinishRestoreReleasesUnclaimed: genesis events the image does not
// reference are dropped — they had already fired in the original run.
func TestFinishRestoreReleasesUnclaimed(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Defer(1, func() { fired++ })
	e.Defer(2, func() { fired++ })
	first, haveFirst := uint64(0), false
	e.q.each(func(ev *Event) {
		if !haveFirst || ev.seq < first {
			first, haveFirst = ev.seq, true
		}
	})
	if !haveFirst {
		t.Fatal("no pending events")
	}
	e.BeginRestore(1.5, e.Seq(), 1)
	// Keep only the second event; the first "already fired".
	if err := e.KeepGenesis(first + 1); err != nil {
		t.Fatal(err)
	}
	e.FinishRestore()
	e.RunUntil(math.Inf(1))
	if fired != 1 {
		t.Fatalf("restored engine fired %d events, want 1", fired)
	}
}

// TestTickerStateRoundTrip: a mid-run ticker restores onto its grid with
// the identical next-fire coordinates.
func TestTickerStateRoundTrip(t *testing.T) {
	var fires []Time
	src := NewEngine()
	tick := NewTicker(src, 3, func() {})
	tick.Start(1)
	src.RunUntil(7.5) // a few ticks in; next at 10
	enc := snapshot.NewEnc()
	tick.WalkState(snapshot.WalkEnc(enc))

	dst := NewEngine()
	tick2 := NewTicker(dst, 3, func() { fires = append(fires, dst.Now()) })
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	if err := tick2.WalkState(snapshot.WalkDec(snapshot.NewDec(enc.Data()))); err != nil {
		t.Fatal(err)
	}
	dst.FinishRestore()
	dst.RunUntil(20)
	want := []Time{10, 13, 16, 19}
	if len(fires) != len(want) {
		t.Fatalf("restored ticker fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("restored ticker fired at %v, want %v", fires, want)
		}
	}
}

// TestTickerStoppedRoundTrip: a stopped ticker restores stopped — no
// event enqueued, Resume picks the grid back up.
func TestTickerStoppedRoundTrip(t *testing.T) {
	src := NewEngine()
	tick := NewTicker(src, 2, func() {})
	tick.Start(0.5)
	src.RunUntil(5)
	tick.Stop()
	enc := snapshot.NewEnc()
	tick.WalkState(snapshot.WalkEnc(enc))

	dst := NewEngine()
	fired := 0
	tick2 := NewTicker(dst, 2, func() { fired++ })
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	if err := tick2.WalkState(snapshot.WalkDec(snapshot.NewDec(enc.Data()))); err != nil {
		t.Fatal(err)
	}
	dst.FinishRestore()
	if tick2.Active() {
		t.Fatal("stopped ticker restored active")
	}
	dst.RunUntil(9)
	if fired != 0 {
		t.Fatalf("stopped ticker fired %d times after restore", fired)
	}
}

// TestCohortStateRoundTrip with tombstones: members stopped mid-run leave
// nil slots in the cohort's member table (sweep order is part of the
// determinism contract), and the restored cohort must reproduce the slot
// layout exactly — including the tombstones — so subsequent sweeps visit
// survivors in the original order.
func TestCohortStateRoundTrip(t *testing.T) {
	src := NewEngine()
	ct := NewCohortTicker(src, 4)
	co := ct.NewCohort(1)
	members := make([]*CohortMember, 5)
	for i := range members {
		members[i] = co.Add(func() {})
	}
	src.RunUntil(6)
	members[1].Stop() // tombstone in slot 1
	members[3].Stop() // tombstone in slot 3
	src.RunUntil(7)

	enc := snapshot.NewEnc()
	if err := co.WalkState(snapshot.WalkEnc(enc), memberIDs(members), members); err != nil {
		t.Fatal(err)
	}

	// Rebuild: reconstruction re-adds all five members (genesis wiring),
	// as the runner's heartbeat driver does.
	dst := NewEngine()

	ct2 := NewCohortTicker(dst, 4)
	co2 := ct2.NewCohort(1)
	members2 := make([]*CohortMember, 5)
	var cur []int
	for i := range members2 {
		n := i
		members2[i] = co2.Add(func() { cur = append(cur, n) })
	}
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	if err := co2.WalkState(snapshot.WalkDec(snapshot.NewDec(enc.Data())), nil, members2); err != nil {
		t.Fatal(err)
	}
	dst.FinishRestore()

	if got := len(co2.members); got != 5 {
		t.Fatalf("restored cohort has %d slots, want 5 (tombstones preserved)", got)
	}
	if co2.members[1] != nil || co2.members[3] != nil {
		t.Fatal("restored cohort lost its tombstones")
	}
	if co2.active != 3 || co2.dead != 2 {
		t.Fatalf("restored cohort counts active=%d dead=%d, want 3/2", co2.active, co2.dead)
	}
	// The next sweep must fire survivors 0, 2, 4 in slot order.
	dst.RunUntil(9.5)
	want := []int{0, 2, 4}
	got := cur
	if len(got) != len(want) {
		t.Fatalf("restored sweep fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored sweep fired %v, want %v", got, want)
		}
	}
}

// TestCohortDecodeRejectsUnknownMember: an image naming a member the
// handle table does not hold is a decode error.
func TestCohortDecodeRejectsUnknownMember(t *testing.T) {
	src := NewEngine()
	ct := NewCohortTicker(src, 4)
	co := ct.NewCohort(1)
	co.Add(func() {})
	src.RunUntil(2)
	enc := snapshot.NewEnc()
	if err := co.WalkState(snapshot.WalkEnc(enc), map[*CohortMember]int64{}, nil); err != nil {
		t.Fatal(err)
	}

	dst := NewEngine()
	ct2 := NewCohortTicker(dst, 4)
	co2 := ct2.NewCohort(1)
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	defer dst.FinishRestore()
	if err := co2.WalkState(snapshot.WalkDec(snapshot.NewDec(enc.Data())), nil, nil); err == nil {
		t.Fatal("decode with an unresolvable member succeeded")
	}
}

// TestCohortRestoreRebuildsLastJoined pins the idle gate's derived state:
// a checkpoint cut between a Resume and a cohort tick at the same instant
// restores into a cohort whose members reconstruction joined at t=0, and
// the gated tick must still leave the just-resumed member out of its
// count. The latest-joined instant is not in the image; decoding
// rebuilds it from the members' joined times.
func TestCohortRestoreRebuildsLastJoined(t *testing.T) {
	build := func(e *Engine) (*Cohort, []*CohortMember, *[]int) {
		ct := NewCohortTicker(e, 1)
		var skipped []int
		ct.SetIdleGate(gateFuncs{func() bool { return true }, func(n int) { skipped = append(skipped, n) }})
		co := ct.NewCohort(0)
		ms := make([]*CohortMember, 3)
		for i := range ms {
			ms[i] = co.Add(func() {})
		}
		return co, ms, &skipped
	}
	src := NewEngine()
	co, ms, _ := build(src)
	src.RunUntil(1.5)
	ms[1].Stop()
	src.At(3, func() { ms[1].Resume() })
	src.RunUntil(2.5)
	if !step(src) || src.Now() != 3 || !ms[1].Active() {
		t.Fatal("the resume did not run first at t=3")
	}
	enc := snapshot.NewEnc()
	if err := co.WalkState(snapshot.WalkEnc(enc), memberIDs(ms), ms); err != nil {
		t.Fatal(err)
	}

	dst := NewEngine()
	co2, ms2, skipped := build(dst)
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	if err := co2.WalkState(snapshot.WalkDec(snapshot.NewDec(enc.Data())), nil, ms2); err != nil {
		t.Fatal(err)
	}
	dst.FinishRestore()
	if co2.lastJoined != 3 {
		t.Fatalf("restored latest-joined instant %v, want 3", co2.lastJoined)
	}
	dst.RunUntil(4.5)
	if want := []int{2, 3}; len(*skipped) != 2 || (*skipped)[0] != want[0] || (*skipped)[1] != want[1] {
		t.Fatalf("restored gated ticks counted %v, want %v", *skipped, want)
	}
}

// TestRestoreRejectsBadInstants: a pending instant that is NaN or lies
// before the image clock is a malformed image, whether it names a tagged
// event (WalkPending) or a cohort tick (Cohort.WalkState, whose instant
// derives from the grid anchor).
func TestRestoreRejectsBadInstants(t *testing.T) {
	for _, when := range []Time{math.NaN(), -5, 0.5} {
		t.Run(fmt.Sprintf("tagged at %v", when), func(t *testing.T) {
			img := snapshot.NewEnc()
			img.U32(0) // no genesis events
			img.U32(1)
			img.U16(7)
			img.F64(when)
			img.U64(3)
			img.Blob(nil)
			e := NewEngine()
			e.BeginRestore(1, 4, 2)
			defer e.FinishRestore()
			err := e.WalkPending(snapshot.WalkDec(snapshot.NewDec(img.Data())), 0, func(uint16, Time, uint64, *snapshot.Dec) error {
				t.Fatal("restore ran for a bad instant")
				return nil
			})
			if !errors.Is(err, snapshot.ErrFormat) {
				t.Fatalf("got %v, want snapshot.ErrFormat", err)
			}
		})
	}
	for _, anchor := range []Time{math.NaN(), -100} {
		t.Run(fmt.Sprintf("cohort anchor %v", anchor), func(t *testing.T) {
			src := NewEngine()
			co := NewCohortTicker(src, 4).NewCohort(1)
			ms := []*CohortMember{co.Add(func() {})}
			src.RunUntil(6)
			enc := snapshot.NewEnc()
			if err := co.WalkState(snapshot.WalkEnc(enc), memberIDs(ms), ms); err != nil {
				t.Fatal(err)
			}
			data := enc.Data()
			if data[1] != 1 {
				t.Fatal("the cohort has no pending tick")
			}
			binary.LittleEndian.PutUint64(data[2:], math.Float64bits(anchor)) // after started, running

			dst := NewEngine()
			co2 := NewCohortTicker(dst, 4).NewCohort(1)
			ms2 := []*CohortMember{co2.Add(func() {})}
			dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
			defer dst.FinishRestore()
			err := co2.WalkState(snapshot.WalkDec(snapshot.NewDec(data)), nil, ms2)
			if !errors.Is(err, snapshot.ErrFormat) {
				t.Fatalf("got %v, want snapshot.ErrFormat", err)
			}
		})
	}
}

// TestRestoredCohortTicksRejoinLane: ticks restored in cohort order enter
// the pending set out of time order, so some land in the heap; once one
// period has passed every running cohort's tick is back in the lane, and
// the resumed run fires exactly what the uninterrupted one fires.
func TestRestoredCohortTicksRejoinLane(t *testing.T) {
	const cohorts, period = 50, 3.0
	build := func(e *Engine, log *[]firing) (*CohortTicker, []*CohortMember) {
		ct := NewCohortTicker(e, period)
		var ms []*CohortMember
		for c := 0; c < cohorts; c++ {
			co := ct.NewCohort(period * Time(c) / cohorts)
			for i := 0; i < 2; i++ {
				id := len(ms)
				ms = append(ms, co.Add(func() { *log = append(*log, firing{e.Now(), id}) }))
			}
		}
		return ct, ms
	}
	var srcLog []firing
	src := NewEngine()
	ct, ms := build(src, &srcLog)
	src.RunUntil(7.3)
	ms[10].Stop() // a tombstone
	ms[20].Stop() // cohort 10 empties, then restarts off its lane position
	ms[21].Stop()
	ms[21].Resume()
	src.RunUntil(8.1)
	enc := snapshot.NewEnc()
	w := snapshot.WalkEnc(enc)
	for _, co := range ct.Cohorts() {
		if err := co.WalkState(w, memberIDs(ms), ms); err != nil {
			t.Fatal(err)
		}
	}

	var dstLog []firing
	dst := NewEngine()
	ct2, ms2 := build(dst, &dstLog)
	dst.BeginRestore(src.Now(), src.Seq(), src.Processed())
	r := snapshot.WalkDec(snapshot.NewDec(enc.Data()))
	for _, co := range ct2.Cohorts() {
		if err := co.WalkState(r, nil, ms2); err != nil {
			t.Fatal(err)
		}
	}
	dst.FinishRestore()
	if heapTicks(dst) == 0 {
		t.Fatal("every restored tick entered the lane; the test exercises nothing")
	}

	srcLog = srcLog[:0]
	src.RunUntil(src.Now() + period)
	dst.RunUntil(dst.Now() + period)
	if n := heapTicks(dst); n != 0 {
		t.Fatalf("%d cohort ticks still in the heap one period after the restore", n)
	}
	if laneLen(dst) != cohorts {
		t.Fatalf("lane holds %d ticks, want %d", laneLen(dst), cohorts)
	}
	src.RunUntil(40)
	dst.RunUntil(40)
	if got, want := fmt.Sprint(dstLog), fmt.Sprint(srcLog); got != want {
		t.Fatalf("resumed run fired\n%s\nuninterrupted run fired\n%s", got, want)
	}
	if len(srcLog) == 0 || src.Processed() != dst.Processed() || src.Seq() != dst.Seq() {
		t.Fatalf("resumed run processed %d events (seq %d), uninterrupted %d (seq %d)",
			dst.Processed(), dst.Seq(), src.Processed(), src.Seq())
	}
}
