package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/mapreduce"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// imageReader walks an image section with the codec's primitives so a
// test can find the offset of one field. It only reads, through the Dec
// methods every codec version has.
type imageReader struct {
	t    *testing.T
	data []byte
	d    *snapshot.Dec
}

func newImageReader(t *testing.T, data []byte) *imageReader {
	return &imageReader{t: t, data: data, d: snapshot.NewDec(data)}
}

// off is the offset of the next field.
func (r *imageReader) off() int { return len(r.data) - r.d.Remaining() }

func (r *imageReader) skip(n int) {
	for range n {
		r.d.U8()
	}
}

func (r *imageReader) count() int { return int(r.d.U32()) }

// flag reads a presence flag the scenario needs to be want.
func (r *imageReader) flag(what string, want bool) {
	if got := r.d.Bool(); got != want {
		r.t.Fatalf("image has %s = %v at offset %d, the table needs %v: the scenario changed", what, got, r.off()-1, want)
	}
}

// rng skips one RNG image: seed, draws, form, then the generator words
// (tap, feed, 607 vec words, two zero words) when the form is full.
func (r *imageReader) rng() {
	r.skip(16)
	if r.d.U8() == 1 {
		r.skip(8 * (2 + 607 + 2))
	}
}

// job skips one tracker job record.
func (r *imageReader) job() {
	r.skip(9 * 8)          // spec: ID .. OutputBlocks
	r.d.Str()              // spec: Pool
	r.skip(16 * r.count()) // pending refs
	r.skip(16 * r.count()) // pendingSeq
	r.skip(8 + 5*8 + 4*8 + 3*8)
	r.skip(16 * r.count()) // attempts
	r.skip(2 + 8)
}

// trackerToJobs reads a tracker image up to its active job list and
// returns the list's length.
func (r *imageReader) trackerToJobs(nodes int) int {
	r.skip(42 * nodes) // slots, gray factors, up, blacklisted
	r.skip(8 + 8 + 1)  // totalJobs, completed, streaming
	r.skip(129 * r.count())
	return r.count()
}

// trackerToScheduler reads a tracker image up to its selector name and
// returns the offset of the name's bytes.
func (r *imageReader) trackerToScheduler(nodes int) int {
	for range r.trackerToJobs(nodes) {
		r.job()
	}
	for range r.count() {
		r.job()
	}
	return r.off() + 4
}

// trackerToOptRNGs reads a tracker image of a fifo run up to the first
// optional RNG's presence flag and returns its offset.
func (r *imageReader) trackerToOptRNGs(nodes int) int {
	r.trackerToScheduler(nodes)
	r.d.Str()
	r.skip(8 * r.count()) // fifo queue
	r.skip(8)             // speculator launched
	r.skip(25 * r.count())
	r.flag("a speculation rule", false)
	for range r.count() {
		r.skip(8)
		for range r.count() {
			r.skip(8)
			isMap := r.d.Bool()
			r.skip(16)
			if isMap {
				r.skip(24)
				if int64(r.d.U64()) < 0 {
					r.skip(9)
				}
			}
		}
	}
	r.skip(8 * nodes) // blame
	if n := r.count(); n != 0 {
		r.t.Fatalf("image holds %d blacklist rules, the table needs none: the scenario changed", n)
	}
	r.flag("a fail-job rule", false)
	return r.off()
}

// registryToLocation reads a registry image up to its first location
// entry and returns the offset of that entry's kind byte.
func (r *imageReader) registryToLocation() int {
	files := r.d.I64()
	blocks := r.d.I64()
	for range files {
		r.d.Str()
		r.skip(8)
		r.skip(8 * r.count())
	}
	for range blocks {
		r.skip(24)
		if n := r.count(); n > 0 {
			return r.off() + 8
		}
	}
	r.t.Fatal("registry image lists no replica")
	return 0
}

// pendingTag returns the offset of the payload of the first tagged
// pending event of the given kind in an engine image, or -1.
func pendingTag(data []byte, kind uint16) int {
	d := snapshot.NewDec(data)
	for range d.U32() {
		d.U64()
	}
	for range d.U32() {
		k := d.U16()
		d.F64()
		d.U64()
		n := int(d.U32())
		if k == kind && d.Err() == nil {
			return len(data) - d.Remaining()
		}
		for range n {
			d.U8()
		}
	}
	return -1
}

func section(f *snapshot.File, id string) []byte {
	data, _ := f.Section(id)
	return data
}

// checkpointWhere checkpoints opts every `every` events and keeps the
// first checkpoint for which ok holds.
func checkpointWhere(t *testing.T, opts Options, every uint64, ok func(f *snapshot.File) bool) *snapshot.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	found := errors.New("checkpoint found")
	hook := func(int) error {
		f, _, err := snapshot.LoadFile(path)
		if err != nil {
			return err
		}
		if ok(f) {
			return found
		}
		return nil
	}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: every, AfterCheckpoint: hook}); !errors.Is(err, found) {
		t.Fatalf("no checkpoint of the run fits the row: %v", err)
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func putI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// cohortsAt reads the tracker image of a fault-free run with a
// heartbeat driver up to the heartbeat cohort count; it returns the
// count's offset.
func cohortsAt(t *testing.T, data []byte) int {
	r := newImageReader(t, data)
	r.trackerToOptRNGs(config.CCT().Slaves)
	for range 2 { // task-failure and blacklist streams
		if r.d.Bool() {
			r.rng()
		}
	}
	r.skip(9 * 8) // gray counters
	if r.d.Bool() {
		r.rng()
	}
	r.skip(2 + 12*8) // master latches and counters
	if r.count()+r.count()+r.count() != 0 {
		t.Fatal("image holds master outage state: the scenario changed")
	}
	r.flag("a tracker journal", false)
	if r.count()+r.count() != 0 {
		t.Fatal("image holds failure or recovery events: the scenario changed")
	}
	r.skip(16)            // repairsDone, lastRepairAt
	r.skip(8 * r.count()) // repairs in flight
	r.flag("a heartbeat driver", true)
	r.flag("coalesced heartbeats", true)
	return r.off()
}

// cohortAnchor returns the offset of the first heartbeat cohort's grid
// anchor, which fixes the instant of its pending tick.
func cohortAnchor(t *testing.T, data []byte) int {
	at := cohortsAt(t, data) + 4 // past the count
	if data[at] != 1 || data[at+1] != 1 {
		t.Fatal("the first heartbeat cohort has no pending tick")
	}
	return at + 2 // past started, running
}

// trackerToJournal reads the tracker image of a fifo run up to the
// retired tracker journal's presence flag and returns its offset.
func (r *imageReader) trackerToJournal(nodes int) int {
	r.trackerToOptRNGs(nodes)
	for range 2 { // task-failure and blacklist streams
		if r.d.Bool() {
			r.rng()
		}
	}
	r.skip(9 * 8) // gray counters
	if r.d.Bool() {
		r.rng()
	}
	r.skip(2 + 12*8) // master latches and counters
	for range r.count() {
		r.skip(8) // time
		r.d.Str() // kind
		r.skip(8) // weighted availability
	}
	r.skip(9 * r.count()) // pending node transitions
	r.skip(8 * r.count()) // unobserved nodes
	return r.off()
}

// TestStateImageDecodeChecks is the decode-check table: each row takes a
// valid checkpoint, patches one field of one image section under a valid
// CRC, and requires the state resume to fail with the check that field
// reaches — snapshot.ErrFormat where the check is typed, its message
// otherwise. Every check the image walks keep behind decoding has a row.
func TestStateImageDecodeChecks(t *testing.T) {
	plain := func(policy core.PolicyKind, scheduler string) Options {
		return Options{
			Profile:   config.CCT(),
			Workload:  truncate(workload.WL1(7), 40),
			Scheduler: scheduler,
			Policy:    PolicyFor(policy),
			Seed:      7,
		}
	}
	chaos := durableScenarios()[2].opts
	// Corrupt replicas make the integrity-aware read path retry, and a
	// retried remote read defers the start of its NIC accounting.
	corrupt := func() Options {
		o := plain(core.ElephantTrapPolicy, "fifo")
		o.Workload, o.Seed = truncate(workload.WL1(11), 60), 11
		o.Chaos = &ChaosSpec{Events: 60, CorruptWeight: 1, CrashWeight: -1, SlowWeight: -1, FlapWeight: -1}
		return o
	}
	failover := func() Options {
		o := plain(core.ElephantTrapPolicy, "fifo")
		o.Workload, o.Seed = truncate(workload.WL1(19), 35), 19
		o.MasterOutages = []MasterOutage{{At: 2, Down: 3, Mode: "journal"}}
		return o
	}
	nodes := config.CCT().Slaves
	any := func(*snapshot.File) bool { return true }
	hasTag := func(kind uint16) func(*snapshot.File) bool {
		return func(f *snapshot.File) bool { return pendingTag(section(f, sectionImgEngine), kind) >= 0 }
	}
	// dfsTruth reads a name node image past its registry and liveness to
	// the disk-truth flag; it returns that flag's offset.
	dfsTruth := func(t *testing.T, data []byte) (*imageReader, int) {
		r := newImageReader(t, data)
		files, blocks := r.d.I64(), r.d.I64()
		for range files {
			r.d.Str()
			r.skip(8)
			r.skip(8 * r.count())
		}
		for range blocks {
			r.skip(24)
			r.skip(10 * r.count())
		}
		r.skip(nodes + 1) // failed, churned
		r.skip(1)         // down
		if r.d.Bool() {
			r.skip(nodes) // warming
		}
		return r, r.off()
	}
	masterDown := func(f *snapshot.File) bool {
		data := section(f, sectionImgDFS)
		_, at := dfsTruth(t, data)
		return at < len(data) && data[at] == 1
	}

	rows := []struct {
		name    string
		opts    func() Options
		every   uint64
		pick    func(*snapshot.File) bool
		section string
		patch   func(t *testing.T, data []byte)
		want    error  // the check's error type, when it is typed
		message string // a fragment of the check's message
	}{
		{"lru kind byte", func() Options { return plain(core.GreedyLRUPolicy, "fifo") }, 300, any, sectionImgCore,
			func(t *testing.T, data []byte) { data[5] ^= 3 }, nil, "state kind"},
		{"lfu kind byte", func() Options { return plain(core.GreedyLFUPolicy, "fifo") }, 300, any, sectionImgCore,
			func(t *testing.T, data []byte) { data[5] ^= 1 }, nil, "state kind"},
		{"elephanttrap kind byte", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgCore,
			func(t *testing.T, data []byte) { data[5] = 0 }, nil, "state kind"},
		{"elephanttrap evict pointer past the ring", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgCore,
			func(t *testing.T, data []byte) {
				// Policy 0: kind, budget, used, ring length, 32-byte entries.
				n := int(binary.LittleEndian.Uint32(data[22:]))
				putI64(data[26+32*n:], int64(n))
			}, nil, "eviction pointer"},
		{"unknown fifo job", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300,
			func(f *snapshot.File) bool {
				r := newImageReader(t, section(f, sectionImgTracker))
				r.trackerToScheduler(nodes)
				r.d.Str()
				return r.count() > 0
			}, sectionImgTracker,
			func(t *testing.T, data []byte) {
				at := newImageReader(t, data).trackerToScheduler(nodes)
				putI64(data[at+4+4:], 999999) // past "fifo" and the queue length
			}, nil, "names unknown job"},
		{"unknown fair job", func() Options { return plain(core.ElephantTrapPolicy, "fair") }, 300,
			func(f *snapshot.File) bool {
				r := newImageReader(t, section(f, sectionImgTracker))
				r.trackerToScheduler(nodes)
				r.d.Str()
				r.skip(16)
				return r.count() > 0
			}, sectionImgTracker,
			func(t *testing.T, data []byte) {
				at := newImageReader(t, data).trackerToScheduler(nodes)
				putI64(data[at+4+16+4:], 999999) // past "fair", the skip limits and the queue length
			}, nil, "names unknown job"},
		{"job window past its file", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300,
			func(f *snapshot.File) bool {
				return newImageReader(t, section(f, sectionImgTracker)).trackerToJobs(nodes) > 0
			}, sectionImgTracker,
			func(t *testing.T, data []byte) {
				r := newImageReader(t, data)
				r.trackerToJobs(nodes)
				putI64(data[r.off()+32:], 1<<20) // the first job's NumMaps
			}, nil, "window of 1048576 blocks"},
		{"selector name", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgTracker,
			func(t *testing.T, data []byte) {
				at := newImageReader(t, data).trackerToScheduler(nodes)
				if string(data[at:at+4]) != "fifo" {
					t.Fatalf("no selector name at offset %d", at)
				}
				data[at+3] = 'x'
			}, nil, "written by selector"},
		{"rng presence", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgTracker,
			func(t *testing.T, data []byte) {
				data[newImageReader(t, data).trackerToOptRNGs(nodes)] ^= 1
			}, nil, "presence mismatch"},
		{"rng tap", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgDFS,
			func(t *testing.T, data []byte) {
				// The placement stream closes the section: a used one's tap
				// follows its seed, draws and form.
				at := len(data) - 8*(2+607+2) - 17
				if data[at+16] != 1 {
					t.Fatal("placement stream image is not full")
				}
				// Keep feed trailing tap, so only the tap's range fails.
				putI64(data[at+17:], 4096)
				putI64(data[at+25:], (4096+607-273)%607)
			}, snapshot.ErrFormat, "rng tap"},
		{"rng fresh image with draws", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgDFS,
			func(t *testing.T, data []byte) {
				at := len(data) - 8*(2+607+2) - 17
				data[at+16] = 0
			}, snapshot.ErrFormat, "fresh rng image"},
		{"registry replica kind", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgDFS,
			func(t *testing.T, data []byte) { data[newImageReader(t, data).registryToLocation()] = 7 }, snapshot.ErrFormat, "replica kind 7"},
		{"disk-truth replica kind", failover, 150, masterDown, sectionImgDFS,
			func(t *testing.T, data []byte) {
				r, at := dfsTruth(t, data)
				r.skip(1)
				for range r.count() {
					if n := r.count(); n > 0 {
						data[r.off()+8] = 7
						return
					}
				}
				t.Fatalf("disk truth at offset %d lists no replica", at)
			}, snapshot.ErrFormat, "disk holds replica kind"},
		{"journal record", failover, 150, masterDown, sectionImgDFS,
			func(t *testing.T, data []byte) {
				r, _ := dfsTruth(t, data)
				r.skip(1)
				for range r.count() {
					r.skip(10 * r.count())
				}
				r.skip(1 + 8) // enabled, every
				if r.count() == 0 {
					t.Fatal("journal holds no record")
				}
				data[r.off()] = 0xEE
			}, snapshot.ErrFormat, "journal record"},
		{"retired tracker journal", failover, 150, any, sectionImgTracker,
			func(t *testing.T, data []byte) {
				at := newImageReader(t, data).trackerToJournal(nodes)
				if data[at] != 0 {
					t.Fatalf("tracker journal presence byte at offset %d is %d, want 0", at, data[at])
				}
				data[at] = 1
			}, nil, "tracker journal presence mismatch"},
		{"cohort count", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgTracker,
			func(t *testing.T, data []byte) {
				at := cohortsAt(t, data)
				binary.LittleEndian.PutUint32(data[at:], binary.LittleEndian.Uint32(data[at:])+1)
			}, nil, "heartbeat cohorts"},
		{"cohort tick NaN instant", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgTracker,
			func(t *testing.T, data []byte) { putF64(data[cohortAnchor(t, data):], math.NaN()) }, snapshot.ErrFormat, "cohort tick"},
		{"cohort tick before the image clock", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, any, sectionImgTracker,
			func(t *testing.T, data []byte) { putF64(data[cohortAnchor(t, data):], -1e6) }, snapshot.ErrFormat, "cohort tick"},
		{"read-begin tag node", corrupt, 5, hasTag(7), sectionImgEngine,
			func(t *testing.T, data []byte) { putI64(data[pendingTag(data, 7):], 1<<20) }, nil, "read-begin tag names invalid node"},
		{"read-release tag node", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) { putI64(data[pendingTag(data, 8):], -1) }, nil, "read-release tag names invalid node"},
		// A tag's instant sits before its seq and payload length.
		{"read-release tag NaN instant", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) { putF64(data[pendingTag(data, 8)-20:], math.NaN()) }, snapshot.ErrFormat, "pending event at NaN"},
		{"read-release tag before the image clock", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) { putF64(data[pendingTag(data, 8)-20:], -5) }, snapshot.ErrFormat, "pending event at -5"},
		{"rejoin tag node", chaos, 20, hasTag(9), sectionImgEngine,
			func(t *testing.T, data []byte) { putI64(data[pendingTag(data, 9):], -3) }, nil, "rejoin tag names invalid node"},
		// A tag's kind sits before its instant.
		{"unknown tag kind", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) {
				binary.LittleEndian.PutUint16(data[pendingTag(data, 8)-22:], 200)
			}, nil, "unknown tag kind 200"},
		{"policy tag in a vanilla run", func() Options { return plain(core.NonePolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) {
				binary.LittleEndian.PutUint16(data[pendingTag(data, 8)-22:], core.TagAnnounce)
			}, nil, "policy-layer event (kind 64) but the rebuilt run has no policy"},
		{"stream window tag in a batch run", func() Options { return plain(core.ElephantTrapPolicy, "fifo") }, 300, hasTag(8), sectionImgEngine,
			func(t *testing.T, data []byte) {
				binary.LittleEndian.PutUint16(data[pendingTag(data, 8)-22:], TagStreamWindow)
			}, nil, "stream window event but the rebuilt run is batch"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := checkpointWhere(t, row.opts(), row.every, row.pick)
			path := rewriteCheckpoint(t, f, t.TempDir(), "patched.ckpt", func(secs []snapshot.Section) []snapshot.Section {
				for _, s := range secs {
					if s.ID == row.section {
						row.patch(t, s.Data)
					}
				}
				return secs
			})
			_, err := ResumeWithMode(path, nil, CheckpointSpec{Path: path, Every: row.every}, ResumeState)
			if err == nil || !strings.Contains(err.Error(), row.message) || row.want != nil && !errors.Is(err, row.want) {
				t.Fatalf("got %v, want an error containing %q (typed %v)", err, row.message, row.want)
			}
		})
	}
}

// TestStreamArrivalDecodeChecks: a pending stream arrival whose job names
// a file outside the population, or a block window past its file's end,
// rewritten under a valid CRC, fails the state resume with the workload's
// per-job rule instead of firing into an index out of range.
func TestStreamArrivalDecodeChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.ckpt")
	found := errors.New("checkpoint found")
	hook := func(int) error {
		f, _, err := snapshot.LoadFile(path)
		if err != nil {
			return err
		}
		if pendingTag(section(f, sectionImgEngine), mapreduce.TagArrive) >= 0 {
			return found
		}
		return nil
	}
	opts := streamOpts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunStream(opts, streamSpec(), &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 50, AfterCheckpoint: hook}); !errors.Is(err, found) {
		t.Fatalf("no checkpoint of the run holds a pending arrival: %v", err)
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An arrival's payload is its job: ID, arrival, file, first block and
	// map count lead, 8 bytes each.
	for _, row := range []struct {
		name    string
		field   int
		val     int64
		message string
	}{
		{"file outside the population", 16, 1 << 20, "references file 1048576"},
		{"negative file", 16, -1, "references file -1"},
		{"window past the file", 24, 1 << 20, "exceeds file"},
		{"window longer than the file", 32, 1 << 20, "window of 1048576 blocks"},
	} {
		t.Run(row.name, func(t *testing.T) {
			patched := rewriteCheckpoint(t, f, t.TempDir(), "patched.ckpt", func(secs []snapshot.Section) []snapshot.Section {
				for _, s := range secs {
					if s.ID == sectionImgEngine {
						putI64(s.Data[pendingTag(s.Data, mapreduce.TagArrive)+row.field:], row.val)
					}
				}
				return secs
			})
			_, err := ResumeStreamWithMode(patched, &bytes.Buffer{}, &bytes.Buffer{}, CheckpointSpec{Path: patched, Every: 50}, ResumeState)
			if err == nil || !strings.Contains(err.Error(), row.message) {
				t.Fatalf("got %v, want an error containing %q", err, row.message)
			}
		})
	}
}

// TestCursorDecodeChecks: a cursor section that is well-formed JSON but
// holds a negative output position, checkpoint count, stream position or
// clock, rewritten under a valid CRC, is snapshot.ErrFormat before the
// state resume rebuilds the run.
func TestCursorDecodeChecks(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "svc.ckpt")
	hook, crashErr := crashAfter(2)
	opts := streamOpts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunStream(opts, streamSpec(), &bytes.Buffer{}, CheckpointSpec{Path: src, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	f, _, err := snapshot.LoadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		key string
		val float64
	}{
		{"eventBytes", -5}, {"reportBytes", -5}, {"checkpoints", -3},
		{"streamEmitted", -1}, {"streamNext", -1}, {"now", -1},
	} {
		t.Run(row.key, func(t *testing.T) {
			path := rewriteCheckpoint(t, f, t.TempDir(), "patched.ckpt", func(secs []snapshot.Section) []snapshot.Section {
				for i, s := range secs {
					if s.ID != sectionCursor {
						continue
					}
					var cur map[string]any
					if err := json.Unmarshal(s.Data, &cur); err != nil {
						t.Fatal(err)
					}
					if _, ok := cur[row.key]; !ok {
						t.Fatalf("cursor %s has no %q key", s.Data, row.key)
					}
					cur[row.key] = row.val
					if secs[i].Data, err = json.Marshal(cur); err != nil {
						t.Fatal(err)
					}
				}
				return secs
			})
			_, err := ResumeStreamWithMode(path, &bytes.Buffer{}, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), "negative") {
				t.Fatalf("got %v, want ErrFormat for a negative cursor position", err)
			}
		})
	}
}
