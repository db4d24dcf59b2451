package runner

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// TestScarlettDecisionsPinned pins the Scarlett controller's placement
// decisions over five runs: a SHA-256 over the replica-add and
// replica-remove lines of the event log, the final PolicyStats and the
// proactive-copy bytes. The wl2 run ages out thousands of replicas, so the
// remove order is pinned too. The churn run has nodes down at epoch
// boundaries, so grow phases skip failed nodes and place lost replicas
// again. The small-budget run stops its grow phases at the budget.
func TestScarlettDecisionsPinned(t *testing.T) {
	cases := []struct {
		name      string
		profile   *config.Profile
		wl        *workload.Workload
		scheduler string
		seed      uint64
		churn     bool    // run under DefaultChurnSpec
		budget    float64 // BudgetFraction; 0 keeps the row's default
		want      string
	}{
		{"cct-wl1-fifo", config.CCT(), truncate(workload.WL1(11), 120), "fifo", 11, false, 0, "08620253b5b995fdacb83b1dddcd63f621bc8673f1ecdb2ca1b08a383e88d16f"},
		{"ec2-wl1-fair", config.EC2(), truncate(workload.WL1(11), 120), "fair", 11, false, 0, "f66a972952cbb71cd96bafda30b862641eece346b735119afd41500682ad04ce"},
		{"cct-wl2-fifo", config.CCT(), truncate(workload.WL2(3), 200), "fifo", 3, false, 0, "9fac423b1425a44036ba104b61e9bb9a0e0bfbc9be9597bf96b4f35a50137a93"},
		{"ec2-wl1-fair-churn", config.EC2(), truncate(workload.WL1(5), 200), "fair", 5, true, 0, "d14c9ec3926c4050c96516a25f775de83f50e7f2dbe00afa8c95f2ca13b1e3bb"},
		{"cct-wl2-fifo-budget", config.CCT(), truncate(workload.WL2(7), 200), "fifo", 7, false, 0.01, "eac3dba75c9d8a971d401879f8c96bb3dcaffe4e38ad8ccbc34cf2ecfe396dc5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{
				Profile:   c.profile,
				Workload:  c.wl,
				Scheduler: c.scheduler,
				Policy:    PolicyFor(core.ScarlettPolicy),
				Seed:      c.seed,
			}
			if c.churn {
				spec := DefaultChurnSpec(span(c.wl), c.profile.Slaves)
				opts.Churn = &spec
			}
			if c.budget > 0 {
				opts.Policy.BudgetFraction = c.budget
			}
			out, log := runWithLog(t, opts)
			var transcript bytes.Buffer
			sc := bufio.NewScanner(bytes.NewReader(log))
			for sc.Scan() {
				line := sc.Bytes()
				if bytes.Contains(line, []byte(`"kind":"replica-add"`)) || bytes.Contains(line, []byte(`"kind":"replica-remove"`)) {
					transcript.Write(line)
					transcript.WriteByte('\n')
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&transcript, "%+v\n%d\n", out.PolicyStats, out.ExtraNetworkBytes)
			sum := sha256.Sum256(transcript.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestScarlettEpochDuringMasterOutage: an epoch boundary that falls while
// the name node is down must not stall the run. The controller skips the
// epoch, so it attempts no add against the down master (Run fails on any
// controller error), and the run completes with the invariant checker on.
func TestScarlettEpochDuringMasterOutage(t *testing.T) {
	wl := truncate(workload.WL1(11), 60)
	span := wl.Jobs[len(wl.Jobs)-1].Arrival
	done := make(chan error, 1)
	var out *Output
	go func() {
		var err error
		out, err = Run(Options{
			Profile:         config.CCT(),
			Workload:        wl,
			Scheduler:       "fifo",
			Policy:          PolicyFor(core.ScarlettPolicy),
			Seed:            11,
			MasterOutages:   []MasterOutage{{At: 0.5 * span, Down: 30, Mode: "journal"}},
			CheckInvariants: true,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a Scarlett run with a master outage did not finish within 30s")
	}
	if out.Master.Outages != 1 {
		t.Fatalf("outages %d, want 1", out.Master.Outages)
	}
	if len(out.Results) != 60 {
		t.Fatalf("results %d, want 60", len(out.Results))
	}
}
