package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/topology"
)

// fingerprint serializes the registry's full authoritative state (and the
// derived byte accounting) deterministically, so two states can be compared
// for bit-identity.
func fingerprint(nn *NameNode) string {
	var b strings.Builder
	for _, f := range nn.files {
		fmt.Fprintf(&b, "file %d %q %v\n", f.ID, f.Name, f.Blocks)
	}
	for _, blk := range nn.blocks {
		fmt.Fprintf(&b, "block %d file=%d idx=%d size=%d locs=", blk.ID, blk.File, blk.Index, blk.Size)
		for _, r := range nn.locs(blk.ID) {
			fmt.Fprintf(&b, "(%d,%v,corrupt=%v)", r.node, r.kind, r.corrupt)
		}
		b.WriteString("\n")
	}
	failed := make([]topology.NodeID, 0, len(nn.failed))
	for n := range nn.failed {
		failed = append(failed, n)
	}
	slices.Sort(failed)
	fmt.Fprintf(&b, "failed=%v churned=%v next=%d/%d\n", failed, nn.churned, len(nn.files), nn.Blocks())
	for n := 0; n < nn.N(); n++ {
		fmt.Fprintf(&b, "node %d primary=%d dynamic=%d blocks=%v\n",
			n, nn.primaryBytes[n], nn.dynamicBytes[n], nn.NodeBlocks(topology.NodeID(n), 0, BlockID(nn.Blocks())))
	}
	return b.String()
}

// driveOps applies a seeded random mixture of every journaled mutation:
// file creation, dynamic replica add/remove, node failure/recovery,
// corruption, and quarantine. It mirrors the generator discipline of the
// churn/chaos harnesses: every op is feasible when issued.
func driveOps(t testing.TB, nn *NameNode, rng *stats.RNG, n int) {
	for i := 0; i < n; i++ {
		driveOp(t, nn, rng, i)
	}
}

// driveOp applies driveOps' i-th op. MarkCorrupt is the one mutation the
// name node publishes no event for, so driveOp reports the replica it
// marked, if any.
func driveOp(t testing.TB, nn *NameNode, rng *stats.RNG, i int) (marked BlockID, on topology.NodeID, ok bool) {
	randBlock := func() BlockID {
		if nn.Blocks() == 0 {
			return -1
		}
		return BlockID(rng.Intn(nn.Blocks()))
	}
	randNode := func() topology.NodeID { return topology.NodeID(rng.Intn(nn.N())) }
	switch rng.Intn(10) {
	case 0, 1:
		if _, err := nn.CreateFile(fmt.Sprintf("f%d", i), 1+rng.Intn(4), 64, 0); err != nil {
			t.Fatalf("op %d create: %v", i, err)
		}
	case 2, 3:
		if b := randBlock(); b >= 0 {
			_ = nn.AddDynamicReplica(b, randNode()) // may legitimately fail
		}
	case 4:
		if b := randBlock(); b >= 0 {
			_ = nn.RemoveDynamicReplica(b, randNode())
		}
	case 5:
		if v := randNode(); !nn.NodeFailed(v) && nn.FailedNodes() < nn.N()-1 {
			nn.FailNode(v)
		}
	case 6:
		if v := randNode(); nn.NodeFailed(v) {
			if _, err := nn.ReRegisterNode(v, nil); err != nil {
				t.Fatalf("op %d recover node %d: %v", i, v, err)
			}
		}
	case 7, 8:
		if b := randBlock(); b >= 0 {
			if locs := nn.Locations(b); len(locs) > 0 {
				node := locs[rng.Intn(len(locs))]
				if nn.MarkCorrupt(b, node) == nil {
					return b, node, true
				}
			}
		}
	case 9:
		if b := randBlock(); b >= 0 {
			if locs := nn.Locations(b); len(locs) > 1 {
				_ = nn.QuarantineReplica(b, locs[rng.Intn(len(locs))])
			}
		}
	}
	return 0, 0, false
}

// A journal-mode crash/recovery must reproduce the pre-crash registry
// bit for bit: recovery rebuilds every derived structure from checkpoint
// plus journal replay, and nothing can mutate while down.
func TestJournalRecoveryRoundTrip(t *testing.T) {
	for _, every := range []int{0, 1, 7, 1 << 20} {
		nn := newTestNN(20, 3, 42)
		nn.EnableJournal(every)
		driveOps(t, nn, stats.NewRNG(42).Split(9), 200)
		want := fingerprint(nn)
		if err := nn.Crash(); err != nil {
			t.Fatal(err)
		}
		if !nn.Down() {
			t.Fatal("not down after Crash")
		}
		if err := nn.Recover(RecoverJournal); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(nn); got != want {
			t.Fatalf("every=%d: journal recovery diverged\nwant:\n%s\ngot:\n%s", every, want, got)
		}
		if err := nn.CheckInvariants(); err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if nn.Warming() {
			t.Fatal("journal mode must not warm")
		}
	}
}

// A report-mode recovery starts with a cold block map and warms back to
// the exact pre-crash state once every live node has reported (disks
// outlive the master, so nothing is truly lost).
func TestReportRecoveryWarmsToPreCrashState(t *testing.T) {
	nn := newTestNN(20, 3, 7)
	nn.EnableJournal(16)
	driveOps(t, nn, stats.NewRNG(7).Split(3), 150)
	// Latch the churn flag before the crash: report-mode recovery latches it
	// too (re-learned locations carry no replication-floor promise), so the
	// pre/post fingerprints can only match if it was already set.
	if !nn.NodeFailed(0) {
		nn.FailNode(0)
	}
	if nn.NodeFailed(0) {
		if _, err := nn.ReRegisterNode(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(nn)
	preCorrupt := nn.CorruptReplicas()

	if err := nn.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nn.Recover(RecoverReport); err != nil {
		t.Fatal(err)
	}
	if !nn.Warming() {
		t.Fatal("report mode must warm")
	}
	if avail, total := nn.Availability(); avail != 0 || total == 0 {
		t.Fatalf("cold view: %d/%d blocks available, want 0/>0", avail, total)
	}
	live := nn.UpNodes()
	if nn.WarmingNodes() != len(live) {
		t.Fatalf("warming %d nodes, %d live", nn.WarmingNodes(), len(live))
	}
	for _, node := range live {
		if !nn.NeedsBlockReport(node) {
			t.Fatalf("node %d not awaited", node)
		}
		if _, err := nn.DeliverBlockReport(node); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.DeliverBlockReport(node); err == nil {
			t.Fatalf("node %d reported twice without rejection", node)
		}
	}
	if nn.Warming() {
		t.Fatal("still warming after every live node reported")
	}
	if got := fingerprint(nn); got != want {
		t.Fatalf("report recovery diverged\nwant:\n%s\ngot:\n%s", want, got)
	}
	if nn.CorruptReplicas() != preCorrupt {
		t.Fatalf("corrupt marks: %d, want %d (reports carry the bad bytes)", nn.CorruptReplicas(), preCorrupt)
	}
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Corruption is disk truth: a replica rotting while the master is down
// must still be marked after recovery, in both modes.
func TestCorruptionWhileDownSurvivesRecovery(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoverJournal, RecoverReport} {
		nn := newTestNN(10, 2, 5)
		nn.EnableJournal(0)
		f, err := nn.CreateFile("f", 4, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.Crash(); err != nil {
			t.Fatal(err)
		}
		victim := nn.Locations(f.Blocks[1])[0]
		if err := nn.MarkCorrupt(f.Blocks[1], victim); err != nil {
			t.Fatal(err)
		}
		if err := nn.Recover(mode); err != nil {
			t.Fatal(err)
		}
		for _, node := range nn.UpNodes() {
			if nn.NeedsBlockReport(node) {
				if _, err := nn.DeliverBlockReport(node); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !nn.IsCorrupt(f.Blocks[1], victim) {
			t.Fatalf("mode %v: corruption mark lost across recovery", mode)
		}
	}
}

// Replay of a truncated journal must not panic and must be monotone: the
// empty prefix reproduces the checkpoint exactly, the full prefix the live
// state exactly, and every prefix in between lands on a registry that
// tracks no more blocks than the full state. (Mid-operation truncation can
// legitimately violate cross-layer invariants — that is what the invariant
// checker is for — but replay itself must stay total.)
func TestJournalReplayTruncated(t *testing.T) {
	nn := newTestNN(15, 2, 13)
	nn.EnableJournal(0) // never auto-checkpoint: keep every record
	checkpointFP := fingerprint(nn)
	driveOps(t, nn, stats.NewRNG(13).Split(1), 120)
	fullFP := fingerprint(nn)
	records := append([]journalRecord(nil), nn.journal.records...)
	fullBlocks := nn.Blocks()
	restore := func() {
		if err := nn.walkRegistry(snapshot.WalkDec(snapshot.NewDec(nn.journal.snap.Data()))); err != nil {
			t.Fatal(err)
		}
	}

	cuts := []int{0, 1, len(records) / 3, len(records) / 2, len(records) - 1, len(records)}
	for _, k := range cuts {
		if k < 0 || k > len(records) {
			continue
		}
		restore()
		nn.replayJournal(records[:k])
		fp := fingerprint(nn)
		switch k {
		case 0:
			if fp != checkpointFP {
				t.Fatalf("empty journal: state differs from checkpoint")
			}
		case len(records):
			if fp != fullFP {
				t.Fatalf("full journal: state differs from live")
			}
		}
		if nn.Blocks() > fullBlocks {
			t.Fatalf("cut %d: replay invented blocks (%d > %d)", k, nn.Blocks(), fullBlocks)
		}
	}
	// Restore the full state so the name node ends the test consistent.
	restore()
	nn.replayJournal(records)
	if err := nn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Replay skips new-file and new-block records that would leave a gap in
// the dense ID space the registry image walks, so a damaged journal from
// a decoded image cannot make the next image write panic.
func TestJournalReplaySkipsIDGaps(t *testing.T) {
	nn := newTestNN(6, 2, 17)
	nn.EnableJournal(0)
	if _, err := nn.CreateFile("f", 2, 64, 0); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(nn)
	nn.journal.records = append(nn.journal.records,
		journalRecord{op: opNewFile, file: FileID(len(nn.files)) + 5, name: "gap"},
		journalRecord{op: opNewBlock, file: 0, block: BlockID(nn.Blocks()) + 7, size: 64})
	if err := nn.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nn.Recover(RecoverJournal); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(nn); got != want {
		t.Fatalf("gapped records changed the registry\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := nn.WalkState(snapshot.WalkEnc(snapshot.NewEnc())); err != nil {
		t.Fatal(err)
	}
}

// Lifecycle errors: crash needs a journal, double-crash and double-recover
// are rejected, mutations while down fail with ErrMasterDown, and block
// reports are only accepted from awaited nodes.
func TestCrashRecoverLifecycleErrors(t *testing.T) {
	plain := newTestNN(5, 2, 1)
	if err := plain.Crash(); err == nil {
		t.Fatal("crash without journal accepted")
	}

	nn := newTestNN(5, 2, 1)
	nn.EnableJournal(0)
	if err := nn.Recover(RecoverJournal); err == nil {
		t.Fatal("recover while up accepted")
	}
	f, err := nn.CreateFile("f", 2, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nn.Crash(); err == nil {
		t.Fatal("double crash accepted")
	}
	if _, err := nn.CreateFile("g", 1, 64, 0); err == nil {
		t.Fatal("CreateFile while down accepted")
	}
	if err := nn.AddDynamicReplica(f.Blocks[0], 4); err == nil {
		t.Fatal("AddDynamicReplica while down accepted")
	}
	if _, err := nn.DeliverBlockReport(0); err == nil {
		t.Fatal("block report while down accepted")
	}
	if err := nn.Recover(RecoverJournal); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.DeliverBlockReport(0); err == nil {
		t.Fatal("unsolicited block report accepted")
	}
}

// FuzzJournalReplay drives a seeded random op sequence against a journaled
// name node with an arbitrary checkpoint cadence and asserts the failover
// identity: checkpoint + journal replay reproduces the live registry bit
// for bit, and the recovered state passes the full invariant check.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(0))
	f.Add(uint64(42), uint16(200), uint8(7))
	f.Add(uint64(0xDEAD), uint16(120), uint8(1))
	f.Add(uint64(7), uint16(300), uint8(33))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, every uint8) {
		n := int(ops) % 400
		nn := newTestNN(12, 2, seed)
		nn.EnableJournal(int(every))
		driveOps(t, nn, stats.NewRNG(seed).Split(0xFA11), n)
		want := fingerprint(nn)
		if err := nn.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := nn.Recover(RecoverJournal); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(nn); got != want {
			t.Fatalf("seed=%d ops=%d every=%d: checkpoint+replay != live state\nwant:\n%s\ngot:\n%s",
				seed, n, every, want, got)
		}
		if err := nn.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
