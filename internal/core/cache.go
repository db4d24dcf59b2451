package core

import (
	"container/heap"
	"container/list"
	"fmt"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/snapshot"
)

// ReplicaCache is one data node's DARE policy (§IV). A map task whose
// input block is not local has already fetched it over the network; the
// cache may capture that block as a dynamic replica and then evicts
// tracked replicas, in its victim order, until the block fits the node's
// replication budget. The kinds differ only in when the Admit rule runs
// and in which replica leaves first:
//
//   - vanilla: Admit is the constant Deny, so nothing is ever captured
//     and there is no victim order.
//   - GreedyLRU (Algorithm 1) and GreedyLFU: Admit (built-in: allow)
//     runs only on an untracked remote read; victims leave in recency
//     or (count, insertion) order.
//   - ElephantTrap (Algorithm 2): Admit is the sampling coin and runs on
//     every observed task before any tracking, so a stateful admit rule
//     draws once per task; victims come from the competitive-aging sweep.
//
// Every kind evicts only candidates its Victim rule accepts (built-in:
// not of the incoming block's file — same file means same popularity,
// so evicting it would thrash). A cache is not safe for concurrent use;
// the single-threaded simulation serializes all calls, as would per-node
// locking in a real data node.
type ReplicaCache struct {
	kind   PolicyKind
	budget int64
	used   int64
	index  map[dfs.BlockID]*entry
	// order ranks the tracked entries for eviction; nil for vanilla.
	order victimOrder
	// admitFirst runs Admit on every observed task before any tracking
	// (ElephantTrap, vanilla) instead of only on an untracked remote read.
	admitFirst bool
	rules      policy.ReplicationRules
	ctx        replCtx
	now        clock
	stats      PolicyStats
}

// entry is one tracked dynamic replica. Each victim order uses the
// fields it needs: count (LFU, ElephantTrap), seq and pos (LFU heap), el
// (the LRU and ElephantTrap lists).
type entry struct {
	block dfs.BlockID
	file  dfs.FileID
	size  int64
	count int64
	seq   uint64
	pos   int
	el    *list.Element
}

// victimOrder is a kind's eviction ranking over the tracked entries.
type victimOrder interface {
	// touch records a read of a tracked entry.
	touch(e *entry)
	// insert starts ranking a newly captured entry.
	insert(e *entry)
	// victim removes and returns the next entry to evict for an incoming
	// block of file, or nil when no entry may leave.
	victim(c *ReplicaCache, file dfs.FileID) *entry
	// walk walks the order's state; decoding refills it and c.index.
	walk(w *snapshot.Walker, c *ReplicaCache) error
}

// newReplicaCache assembles a cache of kind around complete rules. Any
// kind without a victim order is vanilla: zero budget and a deny admit
// whatever rules were given, since a vanilla arm that replicates would
// not be vanilla (the config layer rejects overriding its rules).
func newReplicaCache(kind PolicyKind, budget int64, rules policy.ReplicationRules, now clock) *ReplicaCache {
	c := &ReplicaCache{kind: kind, budget: budget, rules: rules, now: now}
	switch kind {
	case GreedyLRUPolicy:
		c.order = new(lruOrder)
	case GreedyLFUPolicy:
		c.order = new(lfuOrder)
	case ElephantTrapPolicy:
		c.order, c.admitFirst = new(etOrder), true
	default:
		c.kind, c.budget, c.admitFirst = NonePolicy, 0, true
		c.rules = policy.ReplicationRules{Admit: policy.Deny()}
		return c
	}
	c.index = make(map[dfs.BlockID]*entry)
	return c
}

// Stats reports counters accumulated so far.
func (c *ReplicaCache) Stats() PolicyStats { return c.stats }

// Len reports the number of tracked dynamic replicas.
func (c *ReplicaCache) Len() int { return len(c.index) }

// admit primes the context and evaluates the Admit rule.
func (c *ReplicaCache) admit(size int64, local bool) bool {
	c.ctx.admit(local, size, c.used, c.budget, c.now.read())
	return c.rules.Admit.Eval(&c.ctx)
}

// OnMapTask observes a map task scheduled on this node reading block b of
// size bytes belonging to file f; local reports whether the read is
// node-local. It returns the decision the Manager applies.
func (c *ReplicaCache) OnMapTask(b dfs.BlockID, f dfs.FileID, size int64, local bool) Decision {
	if c.admitFirst && !c.admit(size, local) {
		if !local {
			c.stats.RemoteSkipped++
		}
		return Decision{}
	}
	if e, ok := c.index[b]; ok {
		// A read of a tracked replica refreshes it. A remote one (the
		// local copy is still being written, say) also counts as a remote
		// read not captured as a new replica.
		c.order.touch(e)
		c.stats.Refreshes++
		if !local {
			c.stats.RemoteSkipped++
		}
		return Decision{}
	}
	if local {
		return Decision{}
	}
	if !c.admitFirst && !c.admit(size, local) {
		c.stats.RemoteSkipped++
		return Decision{}
	}
	var evict []dfs.BlockID
	for c.used+size > c.budget {
		victim := c.order.victim(c, f)
		if victim == nil {
			// No room can be made (budget too small, or no candidate the
			// Victim rule accepts): skip this replication. Victims already
			// taken stay evicted — they were next in order regardless.
			c.stats.RemoteSkipped++
			c.stats.Evictions += int64(len(evict))
			return Decision{Evict: evict}
		}
		delete(c.index, victim.block)
		evict = append(evict, victim.block)
		c.used -= victim.size
	}
	c.stats.Evictions += int64(len(evict))
	e := &entry{block: b, file: f, size: size}
	c.order.insert(e)
	c.index[b] = e
	c.used += size
	c.stats.ReplicasCreated++
	return Decision{Replicate: true, Evict: evict}
}

// lruOrder is Algorithm 1's recency list: reads move an entry to the
// back, victims leave from the front.
type lruOrder struct{ l list.List }

func (o *lruOrder) touch(e *entry)  { o.l.MoveToBack(e.el) }
func (o *lruOrder) insert(e *entry) { e.el = o.l.PushBack(e) }

// victim takes the least recently used entry the Victim rule accepts. A
// refused candidate keeps its place (Algorithm 1's "continue").
func (o *lruOrder) victim(c *ReplicaCache, file dfs.FileID) *entry {
	for el := o.l.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		c.ctx.candidate(0, false)
		c.ctx.sameFileIs(e.file == file)
		if c.rules.Victim.Eval(&c.ctx) {
			o.l.Remove(el)
			return e
		}
	}
	return nil
}

func (o *lruOrder) walk(w *snapshot.Walker, c *ReplicaCache) error {
	walkList(w, &o.l, c.index, false)
	return nil
}

// lfuOrder is a min-heap on (count, seq): the least-frequently-used
// entry leaves first, the oldest on a tie. §IV names LFU beside LRU as
// the traditional eviction choice, to be picked by profiling.
type lfuOrder struct {
	h   lfuHeap
	seq uint64
}

func (o *lfuOrder) touch(e *entry) {
	e.count++
	heap.Fix(&o.h, e.pos)
}

func (o *lfuOrder) insert(e *entry) {
	e.seq = o.seq
	o.seq++
	heap.Push(&o.h, e)
}

// victim pops the least-frequently-used entry the Victim rule accepts.
// Refused candidates are set aside and pushed back, keeping their counts.
func (o *lfuOrder) victim(c *ReplicaCache, file dfs.FileID) *entry {
	var setAside []*entry
	var victim *entry
	for len(o.h) > 0 {
		e := heap.Pop(&o.h).(*entry)
		c.ctx.candidate(e.count, true)
		c.ctx.sameFileIs(e.file == file)
		if c.rules.Victim.Eval(&c.ctx) {
			victim = e
			break
		}
		setAside = append(setAside, e)
	}
	for _, e := range setAside {
		heap.Push(&o.h, e)
	}
	return victim
}

// walk walks the heap array verbatim: victim's pop/push cycle reshuffles
// sibling order, so the array layout — not just the (count, seq)
// contents — is decision-relevant state.
func (o *lfuOrder) walk(w *snapshot.Walker, c *ReplicaCache) error {
	w.U64(&o.seq)
	snapshot.Len(w, &o.h, 8)
	if w.Decoding() {
		clear(c.index)
	}
	for i := range o.h {
		if w.Decoding() {
			o.h[i] = &entry{pos: i}
		}
		e := o.h[i]
		e.walk(w, true)
		w.U64(&e.seq)
		if w.Decoding() {
			c.index[e.block] = e
		}
	}
	return nil
}

// lfuHeap is a min-heap on (count, seq).
type lfuHeap []*entry

func (h lfuHeap) Len() int { return len(h) }

func (h lfuHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].seq < h[j].seq
}

func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *lfuHeap) Push(x any) {
	e := x.(*entry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = -1
	*h = old[:n-1]
	return e
}

// etOrder is Algorithm 2's ring, an adaptation of the ElephantTrap
// heavy-hitter detector (Lu et al., HOTI'07): reads bump an entry's
// access count, and the eviction pointer sweeps the ring halving counts
// ("competitive aging") until the Aged rule accepts one. Blocks whose
// popularity fades decay quickly, yet a new popular block is not
// evicted prematurely.
type etOrder struct {
	ring list.List // circular order is implied: Next of Back is Front
	// evict is the eviction pointer into ring; nil means "at Front".
	evict *list.Element
}

func (o *etOrder) touch(e *entry) { e.count++ }

// insert puts a new entry right before the eviction pointer: it is the
// last one the pointer reaches, giving it a full aging cycle to prove
// its popularity.
func (o *etOrder) insert(e *entry) {
	if o.evict != nil {
		e.el = o.ring.InsertBefore(e, o.evict)
	} else {
		e.el = o.ring.PushBack(e)
	}
}

// victim walks the ring from the eviction pointer, halving access
// counts, until the Aged rule accepts an entry (built-in: its count is
// below threshold) or the whole ring has been visited. That entry leaves
// only if the Victim rule accepts it; otherwise, or when the sweep finds
// none, the replication is abandoned (Algorithm 2 returns null).
func (o *etOrder) victim(c *ReplicaCache, file dfs.FileID) *entry {
	n := o.ring.Len()
	if n == 0 {
		return nil
	}
	if o.evict == nil {
		o.evict = o.ring.Front()
	}
	var victim *list.Element
	for i := 0; i < n; i++ {
		e := o.evict.Value.(*entry)
		c.ctx.candidate(e.count, true)
		if c.rules.Aged.Eval(&c.ctx) {
			victim = o.evict
			break
		}
		e.count /= 2
		o.advance()
	}
	if victim == nil {
		return nil
	}
	e := victim.Value.(*entry)
	c.ctx.candidate(e.count, true)
	c.ctx.sameFileIs(e.file == file)
	if !c.rules.Victim.Eval(&c.ctx) {
		return nil
	}
	o.advance() // move the pointer off the element being removed
	if o.evict == victim {
		o.evict = nil // victim was the only element
	}
	o.ring.Remove(victim)
	return e
}

// advance moves the eviction pointer one step around the ring.
func (o *etOrder) advance() {
	if o.evict == nil {
		o.evict = o.ring.Front()
		return
	}
	o.evict = o.evict.Next()
	if o.evict == nil {
		o.evict = o.ring.Front()
	}
}

// walk walks the ring, then the eviction pointer as its ring position,
// -1 for nil.
func (o *etOrder) walk(w *snapshot.Walker, c *ReplicaCache) error {
	walkList(w, &o.ring, c.index, true)
	evict, i := -1, 0
	for el := o.ring.Front(); el != nil; el = el.Next() {
		if el == o.evict {
			evict = i
		}
		i++
	}
	snapshot.Int(w, &evict)
	if !w.Decoding() {
		return nil
	}
	if evict >= o.ring.Len() {
		return fmt.Errorf("core: eviction pointer %d out of ring of %d", evict, o.ring.Len())
	}
	o.evict = nil
	if evict >= 0 {
		o.evict = o.ring.Front()
		for range evict {
			o.evict = o.evict.Next()
		}
	}
	return nil
}
