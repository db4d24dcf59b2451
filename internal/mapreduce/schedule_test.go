package mapreduce_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/topology"
)

// Every planned injection is checked when Run starts, before the clock
// moves: a schedule naming a node, rack, factor or downtime the run cannot
// honour fails the run with an error saying which.
func TestPlannedScheduleValidation(t *testing.T) {
	rows := []struct {
		name     string
		schedule func(tr *mapreduce.Tracker)
		want     string
	}{
		{"failure node past the cluster", func(tr *mapreduce.Tracker) { tr.ScheduleNodeFailure(10, 1) },
			"failure scheduled for invalid node 10"},
		{"recovery node below zero", func(tr *mapreduce.Tracker) { tr.ScheduleNodeRecovery(-1, 1) },
			"recovery scheduled for invalid node -1"},
		{"rack past the cluster", func(tr *mapreduce.Tracker) { tr.ScheduleRackFailure(7, 1) },
			"failure scheduled for invalid rack 7"},
		{"degrade node past the cluster", func(tr *mapreduce.Tracker) { tr.ScheduleNodeDegrade(99, 2, false, 1) },
			"degrade scheduled for invalid node 99"},
		{"degrade factor below one", func(tr *mapreduce.Tracker) { tr.ScheduleNodeDegrade(1, 0.5, false, 1) },
			"degrade factor 0.5 for node 1 must be > 1"},
		{"restore node below zero", func(tr *mapreduce.Tracker) { tr.ScheduleNodeRestore(-2, 1) },
			"restore scheduled for invalid node -2"},
		{"flap node past the cluster", func(tr *mapreduce.Tracker) { tr.ScheduleNodeFlap(99, 1, 5) },
			"flap scheduled for invalid node 99"},
		{"flap without downtime", func(tr *mapreduce.Tracker) { tr.ScheduleNodeFlap(1, 1, 0) },
			"flap downtime 0 for node 1 must be > 0"},
		{"master outage without downtime", func(tr *mapreduce.Tracker) {
			tr.EnableMasterRecovery(0)
			tr.ScheduleMasterOutage(1, 0, dfs.RecoverJournal)
		}, "master outage downtime 0 must be > 0"},
		{"master outage unarmed", func(tr *mapreduce.Tracker) { tr.ScheduleMasterOutage(5, 2, dfs.RecoverJournal) },
			"master outage scheduled without EnableMasterRecovery"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, tr := churnFixture(t, 15, 10)
			row.schedule(tr)
			results, err := tr.Run()
			if err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("got %v, want an error containing %q", err, row.want)
			}
			if results != nil {
				t.Fatalf("a rejected schedule returned %d results", len(results))
			}
		})
	}
}

// faultLog records the node-lifecycle, gray and master events of a run.
type faultLog []string

func (l *faultLog) HandleEvent(ev event.Event) {
	switch ev.Kind {
	case event.NodeFail, event.NodeRecover, event.NodeDegrade, event.NodeRestore:
		*l = append(*l, fmt.Sprintf("%g %s %d", ev.Time, ev.Kind, ev.Node))
	case event.MasterCrash, event.MasterRecover:
		*l = append(*l, fmt.Sprintf("%g %s", ev.Time, ev.Kind))
	}
}

// blockOn returns the lowest block with a replica on node.
func blockOn(t *testing.T, nn *dfs.NameNode, node topology.NodeID) dfs.BlockID {
	t.Helper()
	for b := range dfs.BlockID(nn.Blocks()) {
		if nn.HasReplica(b, node) {
			return b
		}
	}
	t.Fatalf("node %d holds no block", node)
	return -1
}

// Planned injections due at one instant fire by class — node failures,
// recoveries, rack failures, degrades, restores, corruptions, flaps,
// master outages — and within a class in registration order. An outage's
// crash and recovery stay adjacent, so an outage that starts the instant
// an earlier one ends begins after that recovery.
func TestPlannedFaultFiringOrder(t *testing.T) {
	c, tr := churnFixture(t, 11, 60)
	log := new(faultLog)
	c.Bus.Subscribe(log)
	const at = 3.0
	// Set-up at t=2: a node for the recovery to bring back and a node for
	// the restore to heal. Registered after the instant's entries of the
	// same class, they still fire first: time orders before class.
	tr.ScheduleNodeFailure(1, at)
	tr.ScheduleNodeFailure(0, at)
	tr.ScheduleNodeFailure(8, at-1)
	tr.ScheduleNodeRecovery(8, at)
	tr.ScheduleRackFailure(0, at) // nodes 0..4: 0 and 1 are already down
	tr.ScheduleNodeDegrade(6, 3, true, at)
	tr.ScheduleNodeDegrade(7, 2, false, at-1)
	tr.ScheduleNodeRestore(7, at)
	// A corruption fires after the failures (node 1's replica is already
	// gone) and before the flap (node 5's replica is still there).
	tr.ScheduleBlockCorruption(blockOn(t, c.NN, 1), 1, at)
	tr.ScheduleBlockCorruption(blockOn(t, c.NN, 5), 5, at)
	// The flap is declared before the master crashes in the same instant,
	// and rejoins after both outages.
	tr.ScheduleNodeFlap(5, at, 4)
	tr.EnableMasterRecovery(0)
	tr.ScheduleMasterOutage(at, 1, dfs.RecoverJournal)
	tr.ScheduleMasterOutage(at+1, 1, dfs.RecoverJournal)
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"2 node-fail 8",
		"2 node-degrade 7",
		"3 node-fail 1",
		"3 node-fail 0",
		"3 node-recover 8",
		"3 node-fail 2",
		"3 node-fail 3",
		"3 node-fail 4",
		"3 node-degrade 6",
		"3 node-restore 7",
		"3 node-fail 5",
		"3 master-crash",
		"4 master-recover",
		"4 master-crash",
		"5 master-recover",
		"7 node-recover 5",
	}
	if !slices.Equal(*log, want) {
		t.Fatalf("fault events:\n%s\nwant:\n%s", strings.Join(*log, "\n"), strings.Join(want, "\n"))
	}
	if got := tr.Gray().CorruptionsInjected; got != 1 {
		t.Fatalf("%d corruptions injected, want 1 (node 5's, before its flap)", got)
	}
}
