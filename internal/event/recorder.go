package event

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Counts holds one counter per event kind. Index with a Kind.
type Counts [NumKinds]uint64

// Total sums the per-kind counters.
func (c Counts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	for k, v := range other {
		c[k] += v
	}
}

// Map returns the non-zero tallies keyed by kind name (nil when empty),
// in the shape JSON encoders want.
func (c Counts) Map() map[string]uint64 {
	var m map[string]uint64
	for k, v := range c {
		if v == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]uint64)
		}
		m[Kind(k).String()] = v
	}
	return m
}

// String renders the non-zero counters in kind-enum order, e.g.
// "replica-add=120 task-launch=4312". Deterministic by construction (array
// order, not map order).
func (c Counts) String() string {
	var sb strings.Builder
	for k, v := range c {
		if v == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Kind(k), v)
	}
	return sb.String()
}

// Counter is the cheapest possible subscriber: it tallies the events it
// hears per kind and nothing else. The bus keeps its own tally of
// everything published (Bus.Counts); a Counter counts only what is
// published after it subscribes.
type Counter struct {
	counts Counts
}

// HandleEvent implements Subscriber.
func (c *Counter) HandleEvent(ev Event) { c.counts[ev.Kind]++ }

// Counts returns a copy of the tallies so far.
func (c *Counter) Counts() Counts { return c.counts }

// Recorder is a Subscriber that appends every event to w as one JSON
// object per line (JSONL). Lines are hand-formatted into a reused buffer
// — no encoding/json, no maps, no per-event allocation once the buffer
// has grown — so recording a trace does not perturb benchmark
// comparisons more than the write itself. The bus keeps the per-kind
// tally (Bus.Counts).
//
// Wire format (stable; field order is fixed):
//
//	{"t":12.5,"kind":"task-launch","node":3,"rack":1,"job":7,"file":2,"block":91,"aux":268435456,"flag":true}
//
// "t" and "kind" always appear; identity fields are omitted when -1, "aux"
// when 0, and "flag" when false. Floats use strconv 'g' shortest
// round-trip formatting, so a trace is byte-reproducible across runs and
// platforms.
type Recorder struct {
	w   *bufio.Writer
	buf []byte
	err error
	// mute drops events unformatted: a recorder over io.Discard stays
	// subscribed, so it keeps its place in dispatch order, but formats
	// nothing until RestoreSink arms a real sink.
	mute bool
	// lastT is the bit image of the last formatted time (at first +0)
	// and tbuf its formatted bytes: events at one instant come in runs,
	// and a run formats its time once.
	lastT uint64
	tbuf  []byte
}

// NewRecorder returns a recorder writing JSONL to w. Call Flush when the
// run completes; write errors are sticky and surface there. A recorder
// over io.Discard is muted until RestoreSink.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{
		w:    bufio.NewWriterSize(w, 1<<16),
		buf:  make([]byte, 0, 160),
		mute: w == io.Discard,
		tbuf: append(make([]byte, 0, 32), '0'),
	}
}

// HandleEvent implements Subscriber.
func (r *Recorder) HandleEvent(ev Event) {
	if r.err != nil || r.mute {
		return
	}
	// The memo compares bit images, so -0 and 0 (equal as floats, "-0"
	// and "0" as text) each format as themselves.
	if t := math.Float64bits(ev.Time); t != r.lastT {
		r.tbuf = strconv.AppendFloat(r.tbuf[:0], ev.Time, 'g', -1, 64)
		r.lastT = t
	}
	b := r.buf[:0]
	b = append(b, `{"t":`...)
	b = append(b, r.tbuf...)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	b = appendIDField(b, `,"node":`, int64(ev.Node))
	b = appendIDField(b, `,"rack":`, int64(ev.Rack))
	b = appendIDField(b, `,"job":`, int64(ev.Job))
	b = appendIDField(b, `,"file":`, int64(ev.File))
	b = appendIDField(b, `,"block":`, ev.Block)
	if ev.Aux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendInt(b, ev.Aux, 10)
	}
	if ev.Flag {
		b = append(b, `,"flag":true`...)
	}
	b = append(b, '}', '\n')
	r.buf = b
	if _, err := r.w.Write(b); err != nil {
		r.err = err
	}
}

func appendIDField(b []byte, key string, v int64) []byte {
	if v < 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendInt(b, v, 10)
}

// RestoreSink discards any buffered, unwritten output, unmutes the
// recorder and points it at w. A state-mode resume records to io.Discard
// during reconstruction (those events fired before the checkpoint and are
// already in the original log's prefix) and arms the real sink here, so
// only post-cut events reach it.
func (r *Recorder) RestoreSink(w io.Writer) {
	r.w.Reset(w)
	r.err = nil
	r.mute = false
}

// Flush drains the buffered writer and reports the first write error
// encountered, if any.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// logLine mirrors the Recorder wire format for decoding. Pointer fields
// distinguish "absent" from zero.
type logLine struct {
	T     float64 `json:"t"`
	Kind  string  `json:"kind"`
	Node  *int32  `json:"node"`
	Rack  *int32  `json:"rack"`
	Job   *int32  `json:"job"`
	File  *int32  `json:"file"`
	Block *int64  `json:"block"`
	Aux   int64   `json:"aux"`
	Flag  bool    `json:"flag"`
}

// ReadLogSkipped decodes a JSONL trace written by Recorder back into
// events. It is the analysis-side inverse of HandleEvent (used by
// trace-analyze); it allocates freely and is not for the hot path. Lines
// whose kind this binary does not know (a trace written by a newer
// simulator) are skipped, not errors, and counted. Malformed JSON is
// still an error — only a valid line with an unknown "kind" is
// forward-compatible.
func ReadLogSkipped(rd io.Reader) ([]Event, int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []Event
	lineNo, skipped := 0, 0
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return nil, skipped, fmt.Errorf("event log line %d: %w", lineNo, err)
		}
		k := KindFromString(l.Kind)
		if k == KindNone {
			skipped++
			continue
		}
		ev := New(k)
		ev.Time = l.T
		if l.Node != nil {
			ev.Node = *l.Node
		}
		if l.Rack != nil {
			ev.Rack = *l.Rack
		}
		if l.Job != nil {
			ev.Job = *l.Job
		}
		if l.File != nil {
			ev.File = *l.File
		}
		if l.Block != nil {
			ev.Block = *l.Block
		}
		ev.Aux = l.Aux
		ev.Flag = l.Flag
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, err
	}
	return out, skipped, nil
}
