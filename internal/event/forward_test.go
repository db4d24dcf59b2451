package event

import (
	"strings"
	"testing"
)

// Forward compatibility: an analyzer built from this binary must survive a
// trace written by a future simulator with event kinds it has never heard
// of — skip and count, never error, never panic.

func TestReadLogSkipsUnknownKinds(t *testing.T) {
	log := strings.Join([]string{
		`{"t":1,"kind":"replica-add","node":3,"block":7}`,
		`{"t":2,"kind":"quantum-entangle","node":4}`, // future kind
		`{"t":3,"kind":"task-launch","node":5,"job":1,"block":9,"flag":true}`,
		`{"t":4,"kind":"quantum-entangle","node":6}`,
	}, "\n")

	evs, skipped, err := ReadLogSkipped(strings.NewReader(log))
	if err != nil {
		t.Fatalf("ReadLogSkipped: %v", err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
	if len(evs) != 2 || evs[0].Kind != ReplicaAdd || evs[1].Kind != TaskLaunch {
		t.Errorf("decoded events = %+v, want the two known-kind lines", evs)
	}
}

func TestReadLogStillRejectsMalformedJSON(t *testing.T) {
	if _, _, err := ReadLogSkipped(strings.NewReader(`{"t":1,"kind":`)); err == nil {
		t.Fatal("malformed JSON line decoded without error")
	}
}

func TestSummarizeToleratesSyntheticKind(t *testing.T) {
	future := Kind(NumKinds + 3) // a kind this binary does not know
	evs := []Event{
		{Kind: ReplicaAdd, Time: 1},
		{Kind: future, Time: 2},
		{Kind: TaskLaunch, Time: 3, Block: 5, Flag: true},
	}
	s := Summarize(evs) // must not panic on the out-of-range kind
	if s.Unknown != 1 {
		t.Errorf("Unknown = %d, want 1", s.Unknown)
	}
	if s.Counts[ReplicaAdd] != 1 || s.Counts[TaskLaunch] != 1 {
		t.Errorf("known kinds miscounted: %v", s.Counts)
	}
	if s.Start != 1 || s.End != 3 {
		t.Errorf("span = [%g, %g], want [1, 3] (unknown events still span)", s.Start, s.End)
	}
	if !strings.Contains(RenderTraceStats(s), "unknown") {
		t.Error("RenderTraceStats does not surface the unknown-event count")
	}
}

func TestSummarizeMasterDowntime(t *testing.T) {
	evs := []Event{
		{Kind: JobArrive, Time: 0},
		{Kind: MasterCrash, Time: 10, Aux: 120},
		{Kind: MasterRecover, Time: 25, Aux: 40, Block: 3},
		{Kind: MasterCrash, Time: 60},
		{Kind: MasterRecover, Time: 70, Aux: 11, Block: 0},
		{Kind: JobFinish, Time: 100},
	}
	s := Summarize(evs)
	if s.MasterOutages != 2 {
		t.Errorf("outages = %d, want 2", s.MasterOutages)
	}
	if s.MasterDowntime != 25 {
		t.Errorf("downtime = %g, want 25", s.MasterDowntime)
	}
	if s.DeferredHeartbeats != 51 || s.DeferredReads != 3 {
		t.Errorf("deferred = %d hb / %d reads, want 51/3", s.DeferredHeartbeats, s.DeferredReads)
	}
	out := RenderTraceStats(s)
	if !strings.Contains(out, "master      2 outages, 25.0 sim seconds unavailable (25.0%), 51 heartbeats and 3 reads deferred") {
		t.Errorf("downtime line missing or wrong:\n%s", out)
	}

	// A trace that ends mid-outage counts the observed tail, and a trace
	// with no master events prints no master line at all.
	cut := Summarize(evs[:4])
	if cut.MasterDowntime != 15 {
		t.Errorf("mid-outage downtime = %g, want 15 (crash at 60, trace ends at 60)", cut.MasterDowntime)
	}
	quiet := Summarize(evs[:1])
	if strings.Contains(RenderTraceStats(quiet), "master ") {
		t.Error("master line printed for a trace with no outages")
	}
}
