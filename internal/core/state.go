package core

import (
	"errors"
	"fmt"
	"slices"

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
	EncodeTag(e *snapshot.Enc)
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

func (t announceTag) TagKind() uint16 { return TagAnnounce }

func (t announceTag) EncodeTag(e *snapshot.Enc) {
	e.Int(int(t.node))
	e.I64(int64(t.block))
	e.Bool(t.pa.canceled)
}

// evictTag identifies a deferred lazy deletion.
type evictTag struct {
	node  topology.NodeID
	block dfs.BlockID
}

func (t evictTag) TagKind() uint16 { return TagEvict }

func (t evictTag) EncodeTag(e *snapshot.Enc) {
	e.Int(int(t.node))
	e.I64(int64(t.block))
}

// scarlettEpochTag identifies the pending epoch-boundary event.
type scarlettEpochTag struct{}

func (scarlettEpochTag) TagKind() uint16           { return TagScarlettEpoch }
func (scarlettEpochTag) EncodeTag(e *snapshot.Enc) {}

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
func (m *Manager) DecodeEvent(kind uint16, d *snapshot.Dec) (EventTag, func(), error) {
	switch kind {
	case TagAnnounce:
		node := topology.NodeID(d.Int())
		b := dfs.BlockID(d.I64())
		canceled := d.Bool()
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		if int(node) < 0 || int(node) >= len(m.pending) {
			return nil, nil, fmt.Errorf("core: announce tag names unknown node %d", node)
		}
		m.node(node)
		pa := &pendingAdd{canceled: canceled}
		if !canceled {
			m.pending[node][b] = pa
		}
		return announceTag{node: node, block: b, pa: pa}, m.announceFn(node, b, pa), nil
	case TagEvict:
		node := topology.NodeID(d.Int())
		b := dfs.BlockID(d.I64())
		if err := d.Err(); err != nil {
			return nil, nil, err
		}
		return evictTag{node: node, block: b}, m.evictFn(node, b), nil
	}
	return nil, nil, fmt.Errorf("core: unknown manager event tag %d", kind)
}

// DecodeEvent rebuilds the controller's pending epoch-boundary closure.
func (s *Scarlett) DecodeEvent(kind uint16, d *snapshot.Dec) (EventTag, func(), error) {
	if kind != TagScarlettEpoch {
		return nil, nil, fmt.Errorf("core: unknown scarlett event tag %d", kind)
	}
	return scarlettEpochTag{}, s.epochFn(), nil
}

func encodeStats(e *snapshot.Enc, s PolicyStats) {
	e.I64(s.ReplicasCreated)
	e.I64(s.Evictions)
	e.I64(s.RemoteSkipped)
	e.I64(s.Refreshes)
}

func decodeStats(d *snapshot.Dec) PolicyStats {
	return PolicyStats{
		ReplicasCreated: d.I64(),
		Evictions:       d.I64(),
		RemoteSkipped:   d.I64(),
		Refreshes:       d.I64(),
	}
}

// encodeRules writes the mutable state of a compiled rule set in the
// fixed [Admit, Victim, Aged] order. Presence
// flags guard against shape drift between encode- and decode-side
// compilations (they are built from the same spec, so any mismatch is a
// corrupt image, not a version skew).
func encodeRules(e *snapshot.Enc, r policy.ReplicationRules) error {
	for _, rule := range []policy.Rule{r.Admit, r.Victim, r.Aged} {
		e.Bool(rule != nil)
		if rule != nil {
			if err := policy.EncodeRuleState(e, rule); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeRules(d *snapshot.Dec, r policy.ReplicationRules) error {
	for _, rule := range []policy.Rule{r.Admit, r.Victim, r.Aged} {
		if d.Bool() != (rule != nil) {
			return fmt.Errorf("core: rule presence mismatch in state image")
		}
		if rule != nil {
			if err := policy.DecodeRuleState(d, rule); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// Per-policy kind bytes, a cheap structural check on decode.
const (
	stateKindNone uint8 = iota
	stateKindLRU
	stateKindLFU
	stateKindET
)

func encodePolicyState(e *snapshot.Enc, np NodePolicy) error {
	switch p := np.(type) {
	case *nonePolicy:
		e.U8(stateKindNone)
		encodeStats(e, p.stats)
	case *GreedyLRU:
		e.U8(stateKindLRU)
		e.I64(p.budget)
		e.I64(p.used)
		e.U32(uint32(p.order.Len()))
		for el := p.order.Front(); el != nil; el = el.Next() {
			entry := el.Value.(*lruEntry)
			e.I64(int64(entry.block))
			e.I64(int64(entry.file))
			e.I64(entry.size)
		}
		if err := encodeRules(e, p.rules); err != nil {
			return err
		}
		encodeStats(e, p.stats)
	case *GreedyLFU:
		e.U8(stateKindLFU)
		e.I64(p.budget)
		e.I64(p.used)
		e.U64(p.seq)
		// The heap array is stored verbatim: popVictim's pop/push cycle
		// reshuffles sibling order, so the array layout — not just the
		// (count, seq) contents — is decision-relevant state.
		e.U32(uint32(len(p.pq)))
		for _, entry := range p.pq {
			e.I64(int64(entry.block))
			e.I64(int64(entry.file))
			e.I64(entry.size)
			e.I64(entry.count)
			e.U64(entry.seq)
		}
		if err := encodeRules(e, p.rules); err != nil {
			return err
		}
		encodeStats(e, p.stats)
	case *ElephantTrap:
		e.U8(stateKindET)
		e.I64(p.budget)
		e.I64(p.used)
		e.U32(uint32(p.ring.Len()))
		evictIdx := -1
		i := 0
		for el := p.ring.Front(); el != nil; el = el.Next() {
			entry := el.Value.(*etEntry)
			e.I64(int64(entry.block))
			e.I64(int64(entry.file))
			e.I64(entry.size)
			e.I64(entry.count)
			if el == p.evict {
				evictIdx = i
			}
			i++
		}
		e.Int(evictIdx)
		if err := encodeRules(e, p.rules); err != nil {
			return err
		}
		encodeStats(e, p.stats)
	default:
		return fmt.Errorf("core: policy type %T has no state codec", np)
	}
	return nil
}

func decodePolicyState(d *snapshot.Dec, np NodePolicy) error {
	kind := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	switch p := np.(type) {
	case *nonePolicy:
		if kind != stateKindNone {
			return fmt.Errorf("core: state kind %d for vanilla policy", kind)
		}
		p.stats = decodeStats(d)
	case *GreedyLRU:
		if kind != stateKindLRU {
			return fmt.Errorf("core: state kind %d for lru policy", kind)
		}
		p.budget = d.I64()
		p.used = d.I64()
		n := d.Count(8)
		if d.Err() != nil {
			return d.Err()
		}
		p.order.Init()
		clear(p.index)
		for i := 0; i < n; i++ {
			entry := &lruEntry{
				block: dfs.BlockID(d.I64()),
				file:  dfs.FileID(d.I64()),
				size:  d.I64(),
			}
			p.index[entry.block] = p.order.PushBack(entry)
		}
		if err := decodeRules(d, p.rules); err != nil {
			return err
		}
		p.stats = decodeStats(d)
	case *GreedyLFU:
		if kind != stateKindLFU {
			return fmt.Errorf("core: state kind %d for lfu policy", kind)
		}
		p.budget = d.I64()
		p.used = d.I64()
		p.seq = d.U64()
		n := d.Count(8)
		if d.Err() != nil {
			return d.Err()
		}
		p.pq = p.pq[:0]
		clear(p.index)
		for i := 0; i < n; i++ {
			entry := &lfuEntry{
				block: dfs.BlockID(d.I64()),
				file:  dfs.FileID(d.I64()),
				size:  d.I64(),
				count: d.I64(),
				seq:   d.U64(),
				pos:   i,
			}
			p.pq = append(p.pq, entry)
			p.index[entry.block] = entry
		}
		if err := decodeRules(d, p.rules); err != nil {
			return err
		}
		p.stats = decodeStats(d)
	case *ElephantTrap:
		if kind != stateKindET {
			return fmt.Errorf("core: state kind %d for elephanttrap policy", kind)
		}
		p.budget = d.I64()
		p.used = d.I64()
		n := d.Count(8)
		if d.Err() != nil {
			return d.Err()
		}
		p.ring.Init()
		clear(p.index)
		for i := 0; i < n; i++ {
			entry := &etEntry{
				block: dfs.BlockID(d.I64()),
				file:  dfs.FileID(d.I64()),
				size:  d.I64(),
				count: d.I64(),
			}
			p.index[entry.block] = p.ring.PushBack(entry)
		}
		evictIdx := d.Int()
		p.evict = nil
		if evictIdx >= 0 {
			if evictIdx >= n {
				return fmt.Errorf("core: eviction pointer %d out of ring of %d", evictIdx, n)
			}
			el := p.ring.Front()
			for i := 0; i < evictIdx; i++ {
				el = el.Next()
			}
			p.evict = el
		}
		if err := decodeRules(d, p.rules); err != nil {
			return err
		}
		p.stats = decodeStats(d)
	default:
		return fmt.Errorf("core: policy type %T has no state codec", np)
	}
	return d.Err()
}

func encodeErrs(e *snapshot.Enc, errs []error) {
	e.U32(uint32(len(errs)))
	for _, err := range errs {
		e.Str(err.Error())
	}
}

func decodeErrs(d *snapshot.Dec) ([]error, error) {
	n := d.Count(4)
	if d.Err() != nil {
		return nil, d.Err()
	}
	var errs []error
	for i := 0; i < n; i++ {
		errs = append(errs, errors.New(d.Str()))
	}
	return errs, d.Err()
}

// EncodeState serializes every node policy's structure and counters. The
// pending announce map is NOT part of this image: it is reconstructed
// entry by entry when the tagged announce events are restored, so the map
// and the closures share the same pendingAdd objects, exactly as live.
// Untouched nodes are built first: a fresh policy encodes exactly as the
// eagerly built one did, so the image does not depend on which nodes a
// run touched.
func (m *Manager) EncodeState(e *snapshot.Enc) error {
	m.buildAll()
	e.U32(uint32(len(m.policies)))
	for _, p := range m.policies {
		if err := encodePolicyState(e, p); err != nil {
			return err
		}
	}
	encodeErrs(e, m.errs)
	return nil
}

// DecodeState restores the node policies from an EncodeState image. The
// manager must be freshly constructed from the same config and seed, so
// the compiled rule trees match shape for shape.
func (m *Manager) DecodeState(d *snapshot.Dec) error {
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.policies) {
		return fmt.Errorf("core: state image has %d policies, manager has %d", n, len(m.policies))
	}
	m.buildAll()
	for _, p := range m.policies {
		if err := decodePolicyState(d, p); err != nil {
			return err
		}
	}
	errs, err := decodeErrs(d)
	if err != nil {
		return err
	}
	m.errs = errs
	return d.Err()
}

// EncodeState serializes the Scarlett controller: epoch access tallies and
// the placed-replica plan in sorted order, budget position, grow-gate
// state, counters.
func (s *Scarlett) EncodeState(e *snapshot.Enc) error {
	e.I64(s.budget)
	e.I64(s.used)
	e.I64(s.extraNetworkBytes)
	e.Bool(s.stopped)

	files := make([]dfs.FileID, 0, len(s.accesses))
	for f := range s.accesses {
		files = append(files, f)
	}
	slices.Sort(files)
	e.U32(uint32(len(files)))
	for _, f := range files {
		e.I64(int64(f))
		e.I64(s.accesses[f])
	}

	blocks := make([]dfs.BlockID, 0, len(s.placed))
	for b := range s.placed {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	e.U32(uint32(len(blocks)))
	var nodes []topology.NodeID
	for _, b := range blocks {
		e.I64(int64(b))
		nodes = nodes[:0]
		for n := range s.placed[b] {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		e.U32(uint32(len(nodes)))
		for _, n := range nodes {
			e.Int(int(n))
		}
	}

	e.Bool(s.grow != nil)
	if s.grow != nil {
		if err := policy.EncodeRuleState(e, s.grow); err != nil {
			return err
		}
	}
	encodeStats(e, s.stats)
	encodeErrs(e, s.errs)
	return nil
}

// DecodeState restores the controller from an EncodeState image. The
// controller must be freshly constructed from the same config (which
// compiled an identically-shaped grow rule).
func (s *Scarlett) DecodeState(d *snapshot.Dec) error {
	s.budget = d.I64()
	s.used = d.I64()
	s.extraNetworkBytes = d.I64()
	s.stopped = d.Bool()

	nf := d.Count(16)
	if d.Err() != nil {
		return d.Err()
	}
	s.accesses = make(map[dfs.FileID]int64, nf)
	for i := 0; i < nf; i++ {
		f := dfs.FileID(d.I64())
		s.accesses[f] = d.I64()
	}

	nb := d.Count(8)
	if d.Err() != nil {
		return d.Err()
	}
	s.placed = make(map[dfs.BlockID]map[topology.NodeID]bool, nb)
	for i := 0; i < nb; i++ {
		b := dfs.BlockID(d.I64())
		nn := d.Count(8)
		if d.Err() != nil {
			return d.Err()
		}
		nodes := make(map[topology.NodeID]bool, nn)
		for k := 0; k < nn; k++ {
			nodes[topology.NodeID(d.Int())] = true
		}
		s.placed[b] = nodes
	}

	if d.Bool() != (s.grow != nil) {
		return fmt.Errorf("core: grow rule presence mismatch in state image")
	}
	if s.grow != nil {
		if err := policy.DecodeRuleState(d, s.grow); err != nil {
			return err
		}
	}
	s.stats = decodeStats(d)
	errs, err := decodeErrs(d)
	if err != nil {
		return err
	}
	s.errs = errs
	return d.Err()
}
