package mapreduce

import (
	"slices"
	"strings"
	"testing"

	"dare/internal/dfs"
	"dare/internal/topology"
)

// TestNodeLifecycleMatrix drives every node transition — crash, switch
// failure, flap, empty rejoin, flap rejoin — once with the master up and
// once during a master outage, and pins what each leaves behind: the
// tracker's and the name node's view of the nodes, the declarations
// queued for the recovering master, the failure and recovery records,
// and the invariant check once the master is back.
//
// The "flap rejoin/master down" row pins ROADMAP fault-interplay defect 1
// as it stands: the rejoin boots the node but neither registers it nor
// queues the registration, so the views disagree after the recovery. The
// fix flips exactly that row.
func TestNodeLifecycleMatrix(t *testing.T) {
	const (
		prepAt   = 2.0  // preconditions, master up
		upAt     = 5.0  // the transition, master up
		crashAt  = 10.0 // outage rows: the master is down over [10, 18)
		downAt   = 12.0 // the transition, master down
		downFor  = 8.0
		settleAt = 18.5 // the master is back (or never left)
		eps      = 0.01
	)
	victim := []topology.NodeID{3}
	rack1 := []topology.NodeID{5, 6, 7, 8, 9}
	failNode := func(tr *Tracker, at float64) {
		tr.c.Eng.DeferAt(at, func() { nodeFailure{node: victim[0]}.fire(tr) })
	}
	flap := func(downFor float64) func(*Tracker, float64) {
		return func(tr *Tracker, at float64) {
			tr.c.Eng.DeferAt(at, func() { nodeFlap{node: victim[0], down: downFor}.fire(tr) })
		}
	}
	type row struct {
		name  string
		down  bool              // the transition happens during the outage
		nodes []topology.NodeID // the nodes it moves, in ID order
		// prep schedules preconditions at prepAt; op schedules the
		// transition at the given time (nil: prep already did).
		prep, op func(tr *Tracker, at float64)
		// Right after the transition: every node's tracker and name node
		// state, whether its master half is queued (one pending event per
		// node, all unobserved), and the records it appended.
		up, failed, queued bool
		fails, recs        int
		rack               int // Rack of the appended failure records
		// Once the master is back: the name node's view, the records
		// appended since the transition began, and the invariant check
		// ("" passes, otherwise a substring of its error).
		failedAfter           bool
		failsAfter, recsAfter int
		rackAfter             int
		divergence            string
	}
	rows := []row{
		{name: "crash/master up", nodes: victim, op: failNode,
			failed: true, fails: 1, rack: -1,
			failedAfter: true, failsAfter: 1, rackAfter: -1},
		{name: "crash/master down", down: true, nodes: victim, op: failNode,
			queued:      true,
			failedAfter: true, failsAfter: 1, rackAfter: -1},
		{name: "rack failure/master up", nodes: rack1,
			op:     func(tr *Tracker, at float64) { tr.c.Eng.DeferAt(at, func() { rackFailure{rack: 1}.fire(tr) }) },
			failed: true, fails: 5, rack: 1,
			failedAfter: true, failsAfter: 5, rackAfter: 1},
		// ROADMAP fault-interplay defect 2, fixed: the deaths wait for the
		// master and are declared as independent failures.
		{name: "rack failure/master down", down: true, nodes: rack1,
			op:          func(tr *Tracker, at float64) { tr.c.Eng.DeferAt(at, func() { rackFailure{rack: 1}.fire(tr) }) },
			queued:      true,
			failedAfter: true, failsAfter: 5, rackAfter: -1},
		{name: "flap/master up", nodes: victim, op: flap(100),
			failed: true, fails: 1, rack: -1,
			failedAfter: true, failsAfter: 1, rackAfter: -1},
		// A flap is the master's false verdict: no master, no flap.
		{name: "flap/master down", down: true, nodes: victim, op: flap(100),
			up: true},
		{name: "empty rejoin/master up", nodes: victim, prep: failNode,
			op: func(tr *Tracker, at float64) {
				tr.c.Eng.DeferAt(at, func() { tr.nodeUp(tr.c.Nodes[victim[0]], false, nil) })
			},
			up: true, recs: 1,
			recsAfter: 1},
		{name: "empty rejoin/master down", down: true, nodes: victim, prep: failNode,
			op: func(tr *Tracker, at float64) {
				tr.c.Eng.DeferAt(at, func() { tr.nodeUp(tr.c.Nodes[victim[0]], false, nil) })
			},
			up: true, failed: true, queued: true,
			recsAfter: 1},
		{name: "flap rejoin/master up", nodes: victim, prep: flap(upAt - prepAt),
			up: true, recs: 1,
			recsAfter: 1},
		{name: "flap rejoin/master down (defect 1)", down: true, nodes: victim, prep: flap(downAt - prepAt),
			up: true, failed: true,
			failedAfter: true,
			divergence:  "node 3 up=true disagrees with name node failed=true"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c, tr := masterFixture(t, 21, 60)
			tr.EnableMasterRecovery(16)
			at := upAt
			if r.down {
				at = downAt
				tr.ScheduleMasterOutage(crashAt, downFor, dfs.RecoverJournal)
			}
			if r.prep != nil {
				r.prep(tr, prepAt)
			}
			if r.op != nil {
				r.op(tr, at)
			}
			var fails0, recs0 int
			tr.c.Eng.DeferAt(at-eps, func() {
				fails0, recs0 = len(tr.failureEvents), len(tr.recoveryEvents)
			})
			// check asserts the node views and the records appended since
			// the transition began.
			check := func(when string, failed bool, fails, recs, rack int) {
				t.Helper()
				for _, id := range r.nodes {
					if n := c.Nodes[id]; n.Up != r.up || c.NN.NodeFailed(id) != failed {
						t.Errorf("%s: node %d up=%v failed=%v, want up=%v failed=%v",
							when, id, n.Up, c.NN.NodeFailed(id), r.up, failed)
					}
				}
				newFails, newRecs := tr.failureEvents[fails0:], tr.recoveryEvents[recs0:]
				if len(newFails) != fails || len(newRecs) != recs {
					t.Fatalf("%s: %d failure and %d recovery records appended, want %d and %d",
						when, len(newFails), len(newRecs), fails, recs)
				}
				for i, fe := range newFails {
					if fe.Node != r.nodes[i] || fe.Rack != rack {
						t.Errorf("%s: failure record %d = node %d rack %d, want node %d rack %d",
							when, i, fe.Node, fe.Rack, r.nodes[i], rack)
					}
				}
				for i, re := range newRecs {
					if re.Node != r.nodes[i] {
						t.Errorf("%s: recovery record %d = node %d, want node %d", when, i, re.Node, r.nodes[i])
					}
				}
			}
			tr.c.Eng.DeferAt(at+eps, func() {
				check("after the transition", r.failed, r.fails, r.recs, r.rack)
				var want []pendingNodeEvent
				if r.queued {
					for _, id := range r.nodes {
						want = append(want, pendingNodeEvent{node: id, recover: r.up})
					}
				}
				if !slices.Equal(tr.master.pending, want) {
					t.Errorf("pending %v, want %v", tr.master.pending, want)
				}
				if len(tr.master.unobserved) != len(want) {
					t.Errorf("unobserved %v, want the pending nodes", tr.master.unobserved)
				}
				for _, pe := range want {
					if !tr.master.unobserved[pe.node] {
						t.Errorf("node %d is pending but not unobserved", pe.node)
					}
				}
			})
			tr.c.Eng.DeferAt(settleAt, func() {
				check("once the master is back", r.failedAfter, r.failsAfter, r.recsAfter, r.rackAfter)
				if len(tr.master.pending) != 0 || len(tr.master.unobserved) != 0 {
					t.Errorf("pending %v, unobserved %v once the master is back", tr.master.pending, tr.master.unobserved)
				}
				err := tr.CheckInvariants()
				switch {
				case r.divergence == "" && err != nil:
					t.Errorf("invariants: %v", err)
				case r.divergence != "" && (err == nil || !strings.Contains(err.Error(), r.divergence)):
					t.Errorf("invariants: %v, want the defect-1 divergence %q", err, r.divergence)
				}
			})
			if _, err := tr.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
