package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// ErrNotSnapshottable marks runs that cannot be checkpointed: Options
// that cannot be transcribed into a checkpoint spec — a hand-assembled
// PolicySet that lacks its declarative source spec. Rule trees are
// compiled from specs at run start; the checkpoint records the
// declarative form and recompiles on restore, so a set without one
// cannot be rebuilt.
var ErrNotSnapshottable = errors.New("runner: options not snapshottable")

// RunSpec is the serializable identity of a run: everything a resumed
// process needs to rebuild Options exactly. The workload is inlined (jobs
// and files verbatim, not the generator config), the profile round-trips
// its performance models as exact typed unions (config.Profile's JSON
// codec), and a policy-file arm rides as its declarative PolicySpec,
// recompiled deterministically on restore. EventLog is deliberately
// absent: the resuming caller re-opens the sink and the replay re-emits
// every line from genesis.
type RunSpec struct {
	Profile   *config.Profile    `json:"profile"`
	Workload  *workload.Workload `json:"workload"`
	Scheduler string             `json:"scheduler"`
	FairSkips int                `json:"fairSkips,omitempty"`

	Policy     core.Config        `json:"policy"`
	PolicySpec *config.PolicySpec `json:"policySpec,omitempty"`

	Seed uint64 `json:"seed"`

	Failures              []NodeFailure  `json:"failures,omitempty"`
	Recoveries            []NodeRecovery `json:"recoveries,omitempty"`
	RackFailures          []RackFailure  `json:"rackFailures,omitempty"`
	Churn                 *ChurnSpec     `json:"churn,omitempty"`
	Chaos                 *ChaosSpec     `json:"chaos,omitempty"`
	MasterOutages         []MasterOutage `json:"masterOutages,omitempty"`
	MasterCheckpointEvery int            `json:"masterCheckpointEvery,omitempty"`
	DisableRepair         bool           `json:"disableRepair,omitempty"`
	MaxTaskAttempts       int            `json:"maxTaskAttempts,omitempty"`
	BlacklistAfter        int            `json:"blacklistAfter,omitempty"`
	TaskFailureProb       float64        `json:"taskFailureProb,omitempty"`
	CheckInvariants       bool           `json:"checkInvariants,omitempty"`

	// Stream, when non-nil, marks a service-mode run: the workload above
	// holds only the file population and arrivals regenerate from this
	// config during replay (see stream.go).
	Stream *StreamRunSpec `json:"stream,omitempty"`
}

// SpecFromOptions transcribes opts into its serializable identity.
func SpecFromOptions(opts Options) (*RunSpec, error) {
	if opts.PolicySet != nil && opts.PolicySet.Spec.Kind == "" {
		return nil, fmt.Errorf("%w: PolicySet carries no declarative spec to rebuild from; construct arms with config.PolicySpec.Build or config.BuiltinPolicy", ErrNotSnapshottable)
	}
	spec := &RunSpec{
		Profile:               opts.Profile,
		Workload:              opts.Workload,
		Scheduler:             opts.Scheduler,
		FairSkips:             opts.FairSkips,
		Policy:                opts.Policy,
		Seed:                  opts.Seed,
		Failures:              opts.Failures,
		Recoveries:            opts.Recoveries,
		RackFailures:          opts.RackFailures,
		Churn:                 opts.Churn,
		Chaos:                 opts.Chaos,
		MasterOutages:         opts.MasterOutages,
		MasterCheckpointEvery: opts.MasterCheckpointEvery,
		DisableRepair:         opts.DisableRepair,
		MaxTaskAttempts:       opts.MaxTaskAttempts,
		BlacklistAfter:        opts.BlacklistAfter,
		TaskFailureProb:       opts.TaskFailureProb,
		CheckInvariants:       opts.CheckInvariants,
	}
	if opts.PolicySet != nil {
		s := opts.PolicySet.Spec
		spec.PolicySpec = &s
	}
	return spec, nil
}

// Options rebuilds runner Options from the spec. A policy-file arm is
// recompiled from its declarative spec — Build is pure, so the rebuilt
// PolicySet is identical to the one the checkpointing process ran with.
// EventLog starts nil; the caller installs the re-opened sink.
func (s *RunSpec) Options() (Options, error) {
	opts := Options{
		Profile:               s.Profile,
		Workload:              s.Workload,
		Scheduler:             s.Scheduler,
		FairSkips:             s.FairSkips,
		Policy:                s.Policy,
		Seed:                  s.Seed,
		Failures:              s.Failures,
		Recoveries:            s.Recoveries,
		RackFailures:          s.RackFailures,
		Churn:                 s.Churn,
		Chaos:                 s.Chaos,
		MasterOutages:         s.MasterOutages,
		MasterCheckpointEvery: s.MasterCheckpointEvery,
		DisableRepair:         s.DisableRepair,
		MaxTaskAttempts:       s.MaxTaskAttempts,
		BlacklistAfter:        s.BlacklistAfter,
		TaskFailureProb:       s.TaskFailureProb,
		CheckInvariants:       s.CheckInvariants,
	}
	if s.PolicySpec != nil {
		set, err := s.PolicySpec.Build()
		if err != nil {
			return Options{}, fmt.Errorf("runner: rebuilding policy arm from spec: %w", err)
		}
		opts.PolicySet = set
	}
	return opts, nil
}

// encodeSpec / decodeSpec are the checkpoint section codec for RunSpec.
func encodeSpec(s *RunSpec) ([]byte, error) {
	return json.Marshal(s)
}

func decodeSpec(b []byte) (*RunSpec, error) {
	var s RunSpec
	if err := decodeSection(b, &s, sectionSpec); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeSection strictly decodes one JSON checkpoint section into v. A
// key this build does not know is a format error naming the key, never
// silently dropped: a checkpoint written with a field that has since been
// retired would otherwise resume on a different code path and fail late,
// as an untyped divergence.
func decodeSection(b []byte, v any, id string) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return fmt.Errorf("%w: decoding checkpoint %q section: %w", snapshot.ErrFormat, id, err)
	}
	return nil
}
