package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dare/internal/snapshot"
)

// ErrNotSnapshottable marks runs that cannot be checkpointed: Options
// that cannot be transcribed into a checkpoint spec — a hand-assembled
// PolicySet that lacks its declarative source spec. Rule trees are
// compiled from specs at run start; the checkpoint records the
// declarative form and recompiles on restore, so a set without one
// cannot be rebuilt.
var ErrNotSnapshottable = errors.New("runner: options not snapshottable")

// RunSpec is the serializable identity of a run: everything a resumed
// process needs to rebuild Options exactly. It is Options itself, in its
// JSON form: the workload is inlined (jobs and files verbatim, not the
// generator config), the profile round-trips its performance models as
// exact typed unions (config.Profile's JSON codec), and a policy-file arm
// rides as its declarative PolicySpec, rebuilt deterministically on
// decode (config.PolicySet's JSON codec). EventLog is not serialised: the
// resuming caller re-opens the sink.
type RunSpec struct {
	Options
	// Stream, when non-nil, marks a service-mode run: the workload above
	// holds only the file population and arrivals regenerate from this
	// config during replay (see stream.go).
	Stream *StreamRunSpec `json:"stream,omitempty"`
}

// SpecFromOptions checks that opts can be checkpointed and wraps it as
// its serializable identity.
func SpecFromOptions(opts Options) (*RunSpec, error) {
	if opts.PolicySet != nil && opts.PolicySet.Spec.Kind == "" {
		return nil, fmt.Errorf("%w: PolicySet carries no declarative spec to rebuild from; construct arms with config.PolicySpec.Build or config.BuiltinPolicy", ErrNotSnapshottable)
	}
	return &RunSpec{Options: opts}, nil
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
