package runner

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// TestDemandGateSurvivesStateResume: the tracker's demand counters, which
// gate heartbeat offers, are derived state that a restore recomputes from
// the active jobs. A fair run under churn, chaos and a master outage,
// with the invariant checker pinning the counters after every fault,
// killed mid-run and state-resumed, must finish with the Output of the
// uninterrupted run.
func TestDemandGateSurvivesStateResume(t *testing.T) {
	opts := func() Options {
		wl := truncate(workload.WL1(23), 60)
		span := wl.Jobs[len(wl.Jobs)-1].Arrival
		p := config.EC2()
		p.RackSize = 5
		p.ReplicationFactor = 2
		churn := DefaultChurnSpec(span, p.Slaves)
		chaos := DefaultChaosSpec(span)
		chaos.MasterWeight = 1
		return Options{
			Profile:         p,
			Workload:        wl,
			Scheduler:       "fair",
			Policy:          PolicyFor(core.ElephantTrapPolicy),
			Seed:            23,
			Churn:           &churn,
			Chaos:           &chaos,
			MasterOutages:   []MasterOutage{{At: span / 2, Down: span / 20, Mode: "journal"}},
			CheckInvariants: true,
		}
	}
	want, err := Run(opts())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(2)
	if _, err := RunCheckpointed(opts(), CheckpointSpec{Path: path, Every: 400, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	got, err := ResumeWithMode(path, nil, CheckpointSpec{Path: path, Every: 400}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := outputJSON(t, got), outputJSON(t, want); !bytes.Equal(g, w) {
		t.Errorf("state-resumed output diverges from the uninterrupted run\nresumed: %s\nwant:    %s", g, w)
	}
}
