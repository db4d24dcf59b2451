package dfs

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dare/internal/snapshot"
	"dare/internal/stats"
)

// downNameNode returns a journaled name node crashed after a run of
// mutations: its image carries pending journal records, a journal
// checkpoint and the crash-time disk truth.
func downNameNode(t *testing.T) *NameNode {
	t.Helper()
	nn := newTestNN(12, 2, 3)
	nn.EnableJournal(25)
	driveOps(t, nn, stats.NewRNG(3).Split(1), 120)
	if err := nn.Crash(); err != nil {
		t.Fatal(err)
	}
	if nn.JournalRecords() == 0 || nn.JournalCheckpoints() == 0 {
		t.Fatalf("want pending records after a rolled checkpoint, got %d records, %d checkpoints",
			nn.JournalRecords(), nn.JournalCheckpoints())
	}
	return nn
}

func encodeState(t *testing.T, nn *NameNode) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := nn.WalkState(snapshot.WalkEnc(e)); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

// TestStateRoundTripThenRecover: a crashed name node's image decodes to a
// name node that re-encodes to the same bytes and recovers, in both modes,
// to the registry the original recovers to.
func TestStateRoundTripThenRecover(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoverJournal, RecoverReport} {
		nn := downNameNode(t)
		img := encodeState(t, nn)
		restored := newTestNN(12, 2, 99)
		d := snapshot.NewDec(img)
		if err := restored.WalkState(snapshot.WalkDec(d)); err != nil {
			t.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		if again := encodeState(t, restored); !bytes.Equal(again, img) {
			t.Fatalf("mode %v: decoded image re-encodes to different bytes", mode)
		}
		for _, n := range []*NameNode{nn, restored} {
			if err := n.Recover(mode); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := fingerprint(restored), fingerprint(nn); got != want {
			t.Fatalf("mode %v: recovery from the decoded image diverges\nwant:\n%s\ngot:\n%s", mode, want, got)
		}
		if !bytes.Equal(encodeState(t, restored), encodeState(t, nn)) {
			t.Fatalf("mode %v: recovered images differ", mode)
		}
	}
}

// registryImage hand-writes a registry image for an n-node cluster: no
// files, one block, whose location entries are locs ({node, kind}
// pairs). count, when >= 0, replaces the written entry count.
func registryImage(n, count int, locs ...[2]int) []byte {
	e := snapshot.NewEnc()
	e.I64(0) // nextFile
	e.I64(1) // nextBlock
	e.I64(0) // block 0: file, index, size
	e.I64(0)
	e.I64(64)
	if count < 0 {
		count = len(locs)
	}
	e.U32(uint32(count))
	for _, l := range locs {
		e.I64(int64(l[0]))
		e.U8(uint8(l[1]))
		e.Bool(false)
	}
	for i := 0; i < n; i++ {
		e.Bool(false) // failed
	}
	e.Bool(false) // churned
	return e.Data()
}

// TestDecodeStateRejectsMalformedImage: every field a name node image
// names a node or a replica kind with, and the location count, is checked
// on decode; one bad value is a snapshot.ErrFormat, never a panic later.
func TestDecodeStateRejectsMalformedImage(t *testing.T) {
	const n = 12
	nn := newTestNN(n, 2, 1)
	if err := nn.walkRegistry(snapshot.WalkDec(snapshot.NewDec(registryImage(n, -1, [2]int{0, int(Primary)}, [2]int{n - 1, int(Dynamic)})))); err != nil {
		t.Fatalf("well-formed hand-written registry rejected: %v", err)
	}
	// Ten bytes per location entry: this count fits eight-byte entries in
	// what is left, not ten-byte ones.
	locs := [][2]int{{1, int(Primary)}, {2, int(Primary)}}
	tooMany := (10*len(locs) + n + 1) / 8

	// want is a fragment of the error naming the field's region.
	rows := []struct {
		name, want string
		img        func(t *testing.T) []byte
	}{
		{"location node negative", "registry state", func(*testing.T) []byte { return registryImage(n, -1, [2]int{-1, int(Primary)}) }},
		{"location node past the cluster", "registry state", func(*testing.T) []byte { return registryImage(n, -1, [2]int{n, int(Primary)}) }},
		{"location kind unknown", "registry state", func(*testing.T) []byte { return registryImage(n, -1, [2]int{0, 2}) }},
		{"location node listed twice", "registry state", func(*testing.T) []byte {
			return registryImage(n, -1, [2]int{3, int(Primary)}, [2]int{3, int(Dynamic)})
		}},
		{"location count past the bytes left", "registry state", func(*testing.T) []byte { return registryImage(n, tooMany, locs...) }},
		{"holders past the bytes left across blocks", "registry state", func(*testing.T) []byte { return holderClaimImage(n) }},
		{"journal checkpoint location node past the cluster", "journal checkpoint state", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.snap.Reset()
			nn.journal.snap.Raw(registryImage(n, -1, [2]int{n, int(Primary)}))
			return encodeState(t, nn)
		}},
		{"journal checkpoint missing", "checkpoint present", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.snap = nil
			return encodeState(t, nn)
		}},
		{"journal op unknown", "journal record", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.records = append(nn.journal.records, journalRecord{op: opChurn + 1})
			return encodeState(t, nn)
		}},
		{"journal node negative", "journal record", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.records = append(nn.journal.records, journalRecord{op: opAddReplica, node: -1})
			return encodeState(t, nn)
		}},
		{"journal node past the cluster", "journal record", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.records = append(nn.journal.records, journalRecord{op: opNodeFail, node: n})
			return encodeState(t, nn)
		}},
		{"journal kind unknown", "journal record", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.journal.records = append(nn.journal.records, journalRecord{op: opAddReplica, node: 0, kind: 2})
			return encodeState(t, nn)
		}},
		{"disk truth kind unknown", "disk holds", func(t *testing.T) []byte {
			nn := downNameNode(t)
			nn.diskTruth[0] = append(nn.diskTruth[0], diskReplica{block: 0, kind: 2})
			return encodeState(t, nn)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := newTestNN(n, 2, 1).WalkState(snapshot.WalkDec(snapshot.NewDec(row.img(t))))
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("got %v, want a snapshot.ErrFormat naming %q", err, row.want)
			}
		})
	}
	// The decode sizes its slabs before it walks, from the counts the
	// bytes left allow, so a claim of four billion holders costs no large
	// allocation on the way to its ErrFormat.
	img := holderClaimImage(n)
	nn = newTestNN(n, 2, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nn.walkRegistry(snapshot.WalkDec(snapshot.NewDec(img)))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("decoding a %d-byte image that claims 2^32-1 holders allocated %d bytes", len(img), grew)
	}
}

// holderClaimImage hand-writes a registry image for an n-node cluster
// with two blocks: the first lists one holder, the second claims 2^32-1,
// far more than the bytes left can hold.
func holderClaimImage(n int) []byte {
	e := snapshot.NewEnc()
	e.I64(0) // nextFile
	e.I64(2) // nextBlock
	for b, count := range []uint32{1, 1<<32 - 1} {
		e.I64(0) // file, index, size
		e.I64(int64(b))
		e.I64(64)
		e.U32(count)
		if b == 0 {
			e.I64(0) // block 0's holder: node 0, a primary
			e.U8(uint8(Primary))
			e.Bool(false)
		}
	}
	for i := 0; i < n; i++ {
		e.Bool(false) // failed
	}
	e.Bool(false) // churned
	return e.Data()
}
