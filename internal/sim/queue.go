package sim

// pendingQueue is the pending-event set behind the engine. Implementations
// must pop in strict (when, seq) order — earliest first, FIFO among equal
// timestamps — because that order is the engine's determinism contract.
// The engine runs on the calendar queue (amortized O(1) for the
// simulator's dense near-future event band); the tests hold a binary-heap
// reference (heapqueue_test.go) and prove the calendar queue fires the
// exact same schedule.
type pendingQueue interface {
	// push inserts ev. The caller (the engine) has already marked it
	// inQueue.
	push(ev *Event)
	// pop removes and returns the minimum (when, seq) event, nil if empty.
	pop() *Event
	// peek returns the minimum without removing it, nil if empty.
	peek() *Event
	// len reports how many events (canceled included) are queued.
	len() int
	// compact removes every canceled event, clears its inQueue mark, and
	// reports how many were dropped. Relative order of survivors is
	// preserved.
	compact() int
	// each visits every queued event (canceled included) in unspecified
	// order; the caller must not mutate the queue during the walk.
	// EncodePending sorts the visited events by (when, seq) itself.
	each(f func(*Event))
}

// eventLess is the engine-wide ordering: by time, then FIFO by sequence
// number among equal timestamps.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap ordered by (when, seq): earliest first,
// FIFO among equal timestamps. It is the calendar queue's overflow tier.
// Its methods are typed, so sift comparisons are direct eventLess calls
// rather than container/heap's interface dispatch, and the wider fan-out
// halves the tree depth a pop sifts through. Pop order is the strict
// (when, seq) order whatever the heap's shape, because seq is unique.
type eventHeap []*Event

// heapArity is the heap's fan-out: node i's children are 4i+1 … 4i+4.
const heapArity = 4

// push inserts ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// init restores the heap order over arbitrary contents in O(n).
func (h eventHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts the event at i toward the root.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down sifts the event at i toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		least := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if eventLess(h[c], h[least]) {
				least = c
			}
		}
		if !eventLess(h[least], ev) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ev
}
