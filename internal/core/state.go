package core

import (
	"container/list"
	"errors"
	"fmt"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/snapshot"
	"dare/internal/topology"
)

// State images for the DARE layer: every node policy's tracked-replica
// structure in its native order (the order IS policy state: two runs
// holding the same set in a different order make different future
// decisions), the compiled rules' mutable leaves, and serializable
// tags for the layer's deferred closures (heartbeat announces, lazy
// deletions, Scarlett epoch boundaries) so the pending event set survives
// a direct-state checkpoint.

// EventTag mirrors sim.EventTag structurally (core deliberately does not
// import the engine package): a serializable identity for a deferred
// closure, letting a restore rebuild the closure from the payload.
type EventTag interface {
	TagKind() uint16
	WalkTag(w *snapshot.Walker)
}

// TagDeferFunc schedules fn after delay seconds carrying tag. The runner
// wires it to the engine's tagged defer.
type TagDeferFunc func(delay float64, tag EventTag, fn func())

// Tag kinds 64–79 are reserved for the core layer.
const (
	// TagAnnounce is a pending dynamic-replica announce: payload
	// (node, block, canceled).
	TagAnnounce uint16 = 64
	// TagEvict is a pending lazy deletion: payload (node, block).
	TagEvict uint16 = 65
	// TagScarlettEpoch is the pending Scarlett epoch boundary: no payload.
	TagScarlettEpoch uint16 = 66
)

// announceTag identifies a deferred announce. The canceled flag is read
// from the live pendingAdd at encode time: an eviction that canceled the
// announce after scheduling leaves the event in the queue as a no-op, and
// the image must reproduce exactly that.
type announceTag struct {
	node  topology.NodeID
	block dfs.BlockID
	pa    *pendingAdd
}

func (t *announceTag) TagKind() uint16 { return TagAnnounce }

func (t *announceTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &t.node)
	snapshot.Int(w, &t.block)
	if w.Decoding() {
		t.pa = new(pendingAdd)
	}
	w.Bool(&t.pa.canceled)
}

// evictTag identifies a deferred lazy deletion.
type evictTag struct {
	node  topology.NodeID
	block dfs.BlockID
}

func (t *evictTag) TagKind() uint16 { return TagEvict }

func (t *evictTag) WalkTag(w *snapshot.Walker) {
	snapshot.Int(w, &t.node)
	snapshot.Int(w, &t.block)
}

// scarlettEpochTag identifies the pending epoch-boundary event.
type scarlettEpochTag struct{}

func (scarlettEpochTag) TagKind() uint16            { return TagScarlettEpoch }
func (scarlettEpochTag) WalkTag(w *snapshot.Walker) {}

// SetTagDefer switches the manager's deferred scheduling to the tagged
// path, making in-flight announces and evictions checkpointable.
func (m *Manager) SetTagDefer(fn TagDeferFunc) { m.tagDefer = fn }

// SetTagDefer switches the controller's epoch scheduling to the tagged
// path. The epoch event pending at the time of the call (scheduled by
// NewScarlett) keeps its untagged genesis identity; every re-arm after
// the next boundary is tagged.
func (s *Scarlett) SetTagDefer(fn TagDeferFunc) { s.tagDefer = fn }

// DecodeEvent rebuilds a manager-owned deferred closure from its tag
// record, re-registering the pendingAdd when the announce is still live.
// The returned tag re-tags the restored event so a later checkpoint can
// serialize it again.
func (m *Manager) DecodeEvent(kind uint16, w *snapshot.Walker) (EventTag, func(), error) {
	switch kind {
	case TagAnnounce:
		tag := new(announceTag)
		tag.WalkTag(w)
		if err := w.Err(); err != nil {
			return nil, nil, err
		}
		if int(tag.node) < 0 || int(tag.node) >= len(m.pending) {
			return nil, nil, fmt.Errorf("core: announce tag names unknown node %d", tag.node)
		}
		m.node(tag.node)
		if !tag.pa.canceled {
			m.pending[tag.node][tag.block] = tag.pa
		}
		return tag, m.announceFn(tag.node, tag.block, tag.pa), nil
	case TagEvict:
		tag := new(evictTag)
		tag.WalkTag(w)
		return tag, m.evictFn(tag.node, tag.block), w.Err()
	}
	return nil, nil, fmt.Errorf("core: unknown manager event tag %d", kind)
}

// DecodeEvent rebuilds the controller's pending epoch-boundary closure.
func (s *Scarlett) DecodeEvent(kind uint16, w *snapshot.Walker) (EventTag, func(), error) {
	if kind != TagScarlettEpoch {
		return nil, nil, fmt.Errorf("core: unknown scarlett event tag %d", kind)
	}
	return scarlettEpochTag{}, s.epochFn(), nil
}

func walkStats(w *snapshot.Walker, s *PolicyStats) {
	w.I64(&s.ReplicasCreated)
	w.I64(&s.Evictions)
	w.I64(&s.RemoteSkipped)
	w.I64(&s.Refreshes)
}

// walkRule walks an optional rule's mutable state behind a presence flag.
// Presence follows from the compiled config, so a mismatch on decode is a
// malformed image (snapshot.ErrFormat), not a version skew.
func walkRule(w *snapshot.Walker, rule policy.Rule, what string) error {
	present := rule != nil
	w.Bool(&present)
	if w.Decoding() && w.Err() == nil && present != (rule != nil) {
		return fmt.Errorf("%w: core: %s presence mismatch in state image", snapshot.ErrFormat, what)
	}
	if rule == nil {
		return nil
	}
	return policy.WalkRuleState(w, rule)
}

// walkRules walks a compiled rule set in the fixed [Admit, Victim, Aged]
// order.
func walkRules(w *snapshot.Walker, r policy.ReplicationRules) error {
	for _, rule := range []policy.Rule{r.Admit, r.Victim, r.Aged} {
		if err := walkRule(w, rule, "rule"); err != nil {
			return err
		}
	}
	return w.Err()
}

// stateKinds maps a cache's kind to its image kind byte, a cheap
// structural check on decode.
var stateKinds = [...]uint8{NonePolicy: 0, GreedyLRUPolicy: 1, GreedyLFUPolicy: 2, ElephantTrapPolicy: 3}

// walk walks an entry's block, file and size, then its access count when
// the order keeps one.
func (e *entry) walk(w *snapshot.Walker, counted bool) {
	snapshot.Int(w, &e.block)
	snapshot.Int(w, &e.file)
	w.I64(&e.size)
	if counted {
		w.I64(&e.count)
	}
}

// walkList walks an ordered entry list (LRU recency order, the
// ElephantTrap ring) as a count and one record per entry in list order.
// Decoding refills the list with fresh entries and rebuilds the block
// index over them.
func walkList(w *snapshot.Walker, l *list.List, index map[dfs.BlockID]*entry, counted bool) {
	n := l.Len()
	w.Count(&n, 8)
	if w.Decoding() {
		l.Init()
		clear(index)
	}
	el := l.Front()
	for range n {
		if w.Decoding() {
			e := new(entry)
			e.el = l.PushBack(e)
			el = e.el
		}
		e := el.Value.(*entry)
		e.walk(w, counted)
		if w.Decoding() {
			index[e.block] = e
		}
		el = el.Next()
	}
}

// walkState walks one node's cache: the kind byte, then — for a kind
// with a victim order — budget, used, the order's own state and the
// rules, then the counters. Vanilla holds nothing but its counters.
func (c *ReplicaCache) walkState(w *snapshot.Walker) error {
	want := stateKinds[c.kind]
	kind := want
	w.U8(&kind)
	if err := w.Err(); err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("core: state kind %d for %s policy", kind, c.kind)
	}
	if c.order != nil {
		w.I64(&c.budget)
		w.I64(&c.used)
		if err := c.order.walk(w, c); err != nil {
			return err
		}
		if err := walkRules(w, c.rules); err != nil {
			return err
		}
	}
	walkStats(w, &c.stats)
	return w.Err()
}

// walkErrs walks recorded errors as their messages.
func walkErrs(w *snapshot.Walker, errs *[]error) error {
	snapshot.Len(w, errs, 4)
	for i, err := range *errs {
		var msg string
		if err != nil {
			msg = err.Error()
		}
		w.Str(&msg)
		if w.Decoding() {
			(*errs)[i] = errors.New(msg)
		}
	}
	return w.Err()
}

// WalkState walks every node policy's structure and counters. The
// pending announce map is NOT part of this image: it is reconstructed
// entry by entry when the tagged announce events are restored, so the map
// and the closures share the same pendingAdd objects, exactly as live.
// Untouched nodes are built first: a fresh policy encodes exactly as the
// eagerly built one did, so the image does not depend on which nodes a
// run touched. Decoding needs a manager freshly constructed from the same
// config and seed, so the compiled rule trees match shape for shape.
func (m *Manager) WalkState(w *snapshot.Walker) error {
	m.buildAll()
	n := uint32(len(m.policies))
	w.U32(&n)
	if w.Err() == nil && int(n) != len(m.policies) {
		return fmt.Errorf("core: state image has %d policies, manager has %d", n, len(m.policies))
	}
	for _, p := range m.policies {
		if err := p.walkState(w); err != nil {
			return err
		}
	}
	return walkErrs(w, &m.errs)
}

// WalkState walks the Scarlett controller: budget, epoch access tallies
// in sorted order, grow-gate state, counters. Its placements are the name
// node's dynamic replicas, which img.dfs carries. Decoding needs a
// controller freshly constructed from the same config (which compiled an
// identically-shaped grow rule).
func (s *Scarlett) WalkState(w *snapshot.Walker) error {
	w.I64(&s.budget)
	w.I64(&s.extraNetworkBytes)
	w.Bool(&s.stopped)
	snapshot.SortedMap(w, &s.accesses, 16, func(w *snapshot.Walker, f dfs.FileID, n int64) (dfs.FileID, int64) {
		snapshot.Int(w, &f)
		w.I64(&n)
		return f, n
	})
	if err := walkRule(w, s.grow, "grow rule"); err != nil {
		return err
	}
	walkStats(w, &s.stats)
	return walkErrs(w, &s.errs)
}
