// Package event is the cluster's event spine: a typed, synchronous,
// multi-subscriber bus that every layer of the simulator publishes to and
// observes. It replaces the ad-hoc single-slot hooks that grew around the
// tracker (the dfs replica listener, the mapreduce replication hook,
// checkAfterEvent) with one surface: the name node publishes replica and
// node lifecycle
// events, the tracker publishes task and job lifecycle events, and any
// number of subscribers — locality-index maintenance, failure handling,
// speculation, invariant checking, replication policies, trace recorders —
// react in deterministic registration order.
//
// Determinism rules:
//
//  1. Publish dispatches synchronously, in the caller's goroutine, before
//     Publish returns. A publisher's next statement runs only after every
//     subscriber has seen the event, so an event is a point in the
//     engine's single timeline, not a message in flight.
//  2. Within a kind, subscribers run in registration order, which is
//     fixed at wiring time. A subscriber hears only the kinds it declares
//     (see KindFilter), so two runs that wire the same subscribers in the
//     same order see identical per-subscriber dispatch sequences.
//  3. Event.Time is stamped by the bus from the simulation clock (the
//     engine's Now), never by wall clock, so a recorded trace is a pure
//     function of (profile, workload, seed).
//
// The hot path allocates nothing: Event is a fixed struct of scalars
// passed by value, the bus keeps one subscriber slice per kind and calls
// through static interface calls, and there are no maps, no reflection,
// and no per-event boxing. The bus tallies every published kind itself,
// so a kind nobody subscribes to costs one counter increment.
package event

// Kind identifies what happened. The enum is the event taxonomy; see
// DESIGN.md ("Event spine") for the publisher and field conventions of
// each kind.
type Kind uint8

const (
	// KindNone is the zero Kind; it is never published.
	KindNone Kind = iota

	// DFS layer (published by dfs.NameNode).
	ReplicaAdd    // a block gained a replica on Node (Flag: dynamic copy)
	ReplicaRemove // a block lost a replica on Node (eviction, balancer move, node loss)
	ReplicaRepair // re-replication restored a primary copy of Block on Node
	NodeFail      // Node left the cluster; all its replicas are already removed
	NodeRecover   // Node rejoined the cluster (its disk was wiped)

	// MapReduce layer (published by mapreduce.Tracker and friends).
	JobArrive     // Job entered the system (Aux: number of map tasks)
	JobFinish     // Job left the system (Flag: failed rather than completed)
	TaskLaunch    // an attempt of a task started on Node (Block >= 0: map; Flag: node-local)
	TaskComplete  // a map task finished (Aux: locality class of the winning attempt; Flag: won a speculative race)
	TaskFail      // a task attempt died (Flag: blamed on the node; Aux=1: the input must be requeued)
	TaskSpeculate // a backup attempt is about to launch for a straggling task
	Heartbeat     // a live tasktracker reported in (Aux: free map slots before speculation)

	// Gray-failure layer (published by dfs.NameNode and the gray injector;
	// see DESIGN.md "Failure taxonomy").
	NodeDegrade    // Node went gray: Aux = service/disk multiplier in milli-units; Flag: disk (vs service time)
	NodeRestore    // a degraded Node returned to full speed (Flag mirrors the degrade)
	ReplicaCorrupt // a checksum mismatch was detected on Node's replica of Block; it is being quarantined (Flag: dynamic copy)
	ReadRetry      // a map attempt fell back to another replica after a corrupt read (Aux: retry ordinal, 1-based)
	HedgedRead     // a slow remote read launched a backup fetch (Aux: hedge source node; Flag: the hedge won)

	// Control-plane fault-tolerance layer (published by dfs.NameNode and
	// mapreduce.Tracker; see DESIGN.md §4h).
	MasterCrash       // the control plane went down (Aux: journaled records at crash; Flag: report-mode recovery selected)
	MasterRecover     // the control plane came back (Aux: heartbeats deferred during the outage; Block: reads deferred; Flag: report-mode recovery)
	BlockReport       // a datanode delivered its block report to a warming master (Aux: replicas reported)
	JournalCheckpoint // the metadata journal rolled into a checkpoint (Aux: journal records folded in)

	numKinds
)

// NumKinds is the number of distinct event kinds, for sizing per-kind
// counter arrays.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	KindNone:       "none",
	ReplicaAdd:     "replica-add",
	ReplicaRemove:  "replica-remove",
	ReplicaRepair:  "replica-repair",
	NodeFail:       "node-fail",
	NodeRecover:    "node-recover",
	JobArrive:      "job-arrive",
	JobFinish:      "job-finish",
	TaskLaunch:     "task-launch",
	TaskComplete:   "task-complete",
	TaskFail:       "task-fail",
	TaskSpeculate:  "task-speculate",
	Heartbeat:      "heartbeat",
	NodeDegrade:    "node-degrade",
	NodeRestore:    "node-restore",
	ReplicaCorrupt: "replica-corrupt",
	ReadRetry:      "read-retry",
	HedgedRead:     "hedged-read",

	MasterCrash:       "master-crash",
	MasterRecover:     "master-recover",
	BlockReport:       "block-report",
	JournalCheckpoint: "journal-checkpoint",
}

// String returns the stable wire name of the kind (used in JSONL traces).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; it returns KindNone for unknown names.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s && k != 0 {
			return Kind(k)
		}
	}
	return KindNone
}

// Event is a fixed-size record of one cluster occurrence. Identity fields
// hold -1 when they do not apply to the kind; Aux and Flag carry one
// kind-specific scalar each (documented on the Kind constants). Events are
// passed by value — subscribers may keep the copy but must not assume any
// pointer identity.
type Event struct {
	Kind  Kind
	Time  float64 // simulation time, stamped by the bus at Publish
	Node  int32   // node id, -1 if not node-scoped
	Rack  int32   // rack of Node, -1 if not node-scoped
	Job   int32   // job id, -1 if not job-scoped
	File  int32   // file id, -1 if unknown
	Block int64   // block id, -1 if not block-scoped
	Aux   int64   // kind-specific scalar (bytes, slots, counts, ...)
	Flag  bool    // kind-specific boolean (local, dynamic, blamed, ...)
}

// New returns an Event of the given kind with every identity field set to
// the -1 "absent" sentinel, so publishers only fill in what applies.
func New(k Kind) Event {
	return Event{Kind: k, Node: -1, Rack: -1, Job: -1, File: -1, Block: -1}
}

// Subscriber receives published events. HandleEvent runs on the
// simulation goroutine inside Publish; it may mutate simulation state and
// schedule engine work, but must not retain goroutines or block.
type Subscriber interface {
	HandleEvent(ev Event)
}

// KindFilter is an optional interface a Subscriber implements to hear
// only some kinds. Subscribe asks once: the subscriber then receives only
// the kinds Kinds returns (none, when it returns none). A subscriber
// without the method receives every kind. Kinds must cover every kind
// HandleEvent reacts to; HandleEvent keeps its own filter, so hiding the
// method never changes what a subscriber does.
type KindFilter interface {
	Kinds() []Kind
}

// Bus fans events out to its subscribers, per kind, in registration
// order, and counts every published event by kind. One bus serves one
// simulated world; it is not safe for concurrent use, by design — the
// simulation is single-threaded (see DESIGN.md §"Concurrency model").
//
// A nil *Bus is a valid no-op publisher, so components that can run
// without a bus (e.g. a bare NameNode in a unit test) need no guards.
type Bus struct {
	clock  func() float64
	byKind [NumKinds][]Subscriber
	counts Counts
	subs   int
}

// NewBus returns a bus that stamps Event.Time from clock (typically
// sim.Engine.Now). A nil clock stamps zero.
func NewBus(clock func() float64) *Bus {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	return &Bus{clock: clock}
}

// Subscribe appends s to the dispatch list of every kind it hears: the
// kinds of its KindFilter, or all of them. Registration order is dispatch
// order within a kind, forever; there is no unsubscribe — wiring happens
// once per run.
func (b *Bus) Subscribe(s Subscriber) {
	b.subs++
	if f, ok := s.(KindFilter); ok {
		var heard [NumKinds]bool
		for _, k := range f.Kinds() {
			if !heard[k] {
				heard[k] = true
				b.byKind[k] = append(b.byKind[k], s)
			}
		}
		return
	}
	for k := range b.byKind {
		b.byKind[k] = append(b.byKind[k], s)
	}
}

// Subscribers reports how many subscribers are registered.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	return b.subs
}

// Publish counts ev and, when any subscriber hears its kind, stamps it
// with the current simulation time and delivers it to each of them,
// synchronously, in registration order. Publishing on a nil bus is a
// no-op. Publish stays small enough to inline, so an unheard kind costs
// its caller one increment; it sits at the inliner's budget, so check
// `go build -gcflags=-m ./internal/event/` after touching it.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.counts[ev.Kind]++
	if b.byKind[ev.Kind] != nil { // a kind's list is nil until its first subscriber
		b.dispatch(ev)
	}
}

// Hears reports whether any subscriber hears kind k. A publisher that
// would only publish k may then Tally instead; a nil bus hears nothing.
func (b *Bus) Hears(k Kind) bool { return b != nil && b.byKind[k] != nil }

// Tally counts n events of kind k without delivering them, exactly as n
// Publish calls would when nobody hears k. It is how a batch of unheard
// events (an idle heartbeat sweep) costs one add instead of n publishes.
// A nil bus ignores it.
func (b *Bus) Tally(k Kind, n int) {
	if b == nil {
		return
	}
	b.counts[k] += uint64(n)
}

// dispatch stamps ev and delivers it to its kind's subscribers.
func (b *Bus) dispatch(ev Event) {
	ev.Time = b.clock()
	for _, s := range b.byKind[ev.Kind] {
		s.HandleEvent(ev)
	}
}

// Counts returns the per-kind tally of every event published so far.
func (b *Bus) Counts() Counts {
	if b == nil {
		return Counts{}
	}
	return b.counts
}

// RestoreCounts overwrites the tally; a state-image restore seeds a fresh
// bus with the counts captured at the checkpoint.
func (b *Bus) RestoreCounts(counts Counts) { b.counts = counts }
