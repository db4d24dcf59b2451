package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// fullSpecGolden holds the indented RunSpec JSON of fullSpec. Every
// checkpoint embeds these bytes compactly, so a change to a field's name,
// order, tag or encoding moves them.
const fullSpecGolden = "testdata/fullspec.golden.json"

// fullSpec is a RunSpec with every field set: all of Options but the
// event log, a policy-file arm with rule overrides, and a stream config.
func fullSpec(t *testing.T) *RunSpec {
	t.Helper()
	set, err := config.LoadPolicy(filepath.Join("..", "..", "configs", "bandit.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Profile: config.EC2Small(),
		Workload: &workload.Workload{
			Name:  "tiny",
			Files: []workload.FileSpec{{Name: "f0", Blocks: 4}, {Name: "f1", Blocks: 2}},
			Jobs: []workload.Job{
				{ID: 0, Arrival: 0.5, File: 0, FirstBlock: 1, NumMaps: 3, CPUPerTask: 1.25, NumReduces: 1, ReduceTime: 2, OutputBlocks: 1, Pool: "a"},
				{ID: 1, Arrival: 1.75, File: 1, NumMaps: 2, CPUPerTask: 0.5},
			},
			ZipfS: 1.1,
		},
		Scheduler:             "fair",
		FairSkips:             3,
		Policy:                PolicyFor(core.ScarlettPolicy),
		PolicySet:             set,
		Seed:                  17,
		Failures:              []NodeFailure{{Node: 2, At: 3.5}},
		Recoveries:            []NodeRecovery{{Node: 2, At: 9}},
		RackFailures:          []RackFailure{{Rack: 1, At: 4.25}},
		Churn:                 &ChurnSpec{MTTF: 40, MTTR: 5, RackFailProb: 0.1, Horizon: 60},
		Chaos:                 &ChaosSpec{Events: 8, Horizon: 50, CrashWeight: 1, SlowWeight: 2, CorruptWeight: 1.5, FlapWeight: 0.5, MTTR: 4, SlowMean: 6, SlowFactorMax: 5, FlapDown: 1, HedgeTimeout: 0.75, MasterWeight: 0.25, MasterDown: 3, MasterRecovery: "report"},
		MasterOutages:         []MasterOutage{{At: 12, Down: 2.5, Mode: "journal"}},
		MasterCheckpointEvery: 64,
		DisableRepair:         true,
		MaxTaskAttempts:       6,
		BlacklistAfter:        2,
		TaskFailureProb:       0.05,
		CheckInvariants:       true,
	}
	spec, err := SpecFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	spec.Stream = &StreamRunSpec{
		Gen:              workload.GenConfig{Name: "wl2", Seed: 17, LargeEvery: 10, MeanInterarrival: 0.6},
		DiurnalAmplitude: 0.4,
		DiurnalPeriod:    40,
		Window:           5,
		Horizon:          30,
	}
	return spec
}

// TestRunSpecFullGolden pins the checkpoint spec bytes of a spec with
// every field set, and that decoding them and encoding again reproduces
// them: the policy-file arm is rebuilt from its spec and written back as
// that spec.
func TestRunSpecFullGolden(t *testing.T) {
	data, err := encodeSpec(fullSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	want, err := os.ReadFile(fullSpecGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("RunSpec JSON differs from %s:\n%s", fullSpecGolden, got.Bytes())
	}
	spec, err := decodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("decode → encode moved the spec bytes:\ngot:  %s\nwant: %s", again, data)
	}
}
