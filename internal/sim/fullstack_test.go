package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/runner"
	"dare/internal/sim"
	"dare/internal/workload"
)

// fullStackRun executes opts with the event recorder attached and returns
// the output plus the JSONL trace.
func fullStackRun(t *testing.T, opts runner.Options) (*runner.Output, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts.EventLog = &buf
	out, err := runner.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestCalendarMatchesHeapFullStack is the end-to-end determinism contract
// of the production pending set (named for the calendar queue the lane
// queue replaced): a full cluster run — churn, chaos, invariant checks,
// the works — executed on the production engine and on the reference heap
// engine must produce identical results and a byte-identical event trace.
// The queue-level differential and fuzz target prove order equivalence;
// this proves nothing above the engine observes a difference either.
func TestCalendarMatchesHeapFullStack(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	for _, seed := range []uint64{7, 42} {
		for _, arm := range []string{"plain", "churn", "chaos"} {
			t.Run(fmt.Sprintf("%s/%d", arm, seed), func(t *testing.T) {
				wl := *workload.WL2(seed)
				wl.Jobs = wl.Jobs[:40]
				span := wl.Jobs[len(wl.Jobs)-1].Arrival
				opts := runner.Options{
					Profile:         profile,
					Workload:        &wl,
					Scheduler:       "fair",
					Policy:          runner.PolicyFor(core.GreedyLRUPolicy),
					Seed:            seed,
					CheckInvariants: true,
				}
				switch arm {
				case "churn":
					spec := runner.DefaultChurnSpec(span, profile.Slaves)
					opts.Churn = &spec
				case "chaos":
					spec := runner.DefaultChaosSpec(span)
					opts.Chaos = &spec
				}
				eng, engLog := fullStackRun(t, opts)
				sim.UseHeapQueue(t)
				hp, hpLog := fullStackRun(t, opts)
				if !reflect.DeepEqual(eng.Summary, hp.Summary) {
					t.Errorf("summaries diverge\nengine: %+v\nheap:   %+v", eng.Summary, hp.Summary)
				}
				if !reflect.DeepEqual(eng.Results, hp.Results) {
					t.Error("per-job results diverge")
				}
				if eng.EventsProcessed != hp.EventsProcessed {
					t.Errorf("events processed diverge: %d vs %d", eng.EventsProcessed, hp.EventsProcessed)
				}
				if !bytes.Equal(engLog, hpLog) {
					t.Error("event logs diverge")
				}
			})
		}
	}
}
