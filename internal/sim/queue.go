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

// eventHeap orders by (when, seq): earliest first, FIFO among equal
// timestamps. It is the calendar queue's overflow tier.
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
