package runner

import (
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// FuzzDecodeSpec hammers the RunSpec JSON every checkpoint embeds:
// decoding it, which rebuilds a policy-file arm from its spec, must
// return a typed error or a value, never panic. Seeds are the specs of a
// flag arm, a configs/bandit.json arm and a stream run.
func FuzzDecodeSpec(f *testing.F) {
	flagArm := Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL1(7), 12),
		Scheduler: "fair",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      7,
	}
	bandit, err := config.LoadPolicy("../../configs/bandit.json")
	if err != nil {
		f.Fatal(err)
	}
	banditArm := flagArm
	banditArm.Profile = config.EC2()
	banditArm.PolicySet = bandit
	for _, opts := range []Options{flagArm, banditArm} {
		spec, err := SpecFromOptions(opts)
		if err != nil {
			f.Fatal(err)
		}
		data, err := encodeSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A stream spec as RunStream writes it: the file population only,
	// plus the generator config.
	scfg := streamSpec()
	streamArm := streamOpts()
	streamArm.Workload = workload.NewStream(workload.StreamConfig{
		Gen:              scfg.Gen,
		DiurnalAmplitude: scfg.DiurnalAmplitude,
		DiurnalPeriod:    scfg.DiurnalPeriod,
	}).Workload()
	stream, err := SpecFromOptions(streamArm)
	if err != nil {
		f.Fatal(err)
	}
	stream.Stream = &scfg
	data, err := encodeSpec(stream)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeSpec(data)
	})
}
