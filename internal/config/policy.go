package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dare/internal/policy"
)

// PolicySpec is the JSON form of a complete policy configuration — the
// -policy-file front end. It selects a replication policy kind with its
// scalar knobs, and may override any of the simulator's declarative
// decision points with policy.RuleSpec trees:
//
//	{
//	  "name": "bandit",
//	  "kind": "elephanttrap",
//	  "budget": 0.2,
//	  "replication": {"admit": {"rule": "epsilongreedy", ...}},
//	  "repair": [{"key": "rack_fresh", "weight": 1}, ...],
//	  "speculation": {"rule": "all", ...},
//	  "blacklist": {"rule": "threshold", ...},
//	  "failJob": {"rule": "threshold", ...}
//	}
//
// Omitted sections keep the built-in behavior, which reproduces the
// hard-coded decisions byte for byte. Unknown fields are load errors.
type PolicySpec struct {
	// Name labels the arm in sweep tables and sim output; defaults to the
	// canonical kind name.
	Name string `json:"name,omitempty"`
	// Kind is a policy name or alias from PolicyRows.
	Kind string `json:"kind"`

	// Scalar knobs; Build fills zero values from PolicyRows.
	P                  float64 `json:"p,omitempty"`         // ET sampling probability
	Threshold          int64   `json:"threshold,omitempty"` // ET aging threshold
	Budget             float64 `json:"budget,omitempty"`    // budget fraction
	AnnounceDelay      float64 `json:"announceDelay,omitempty"`
	LazyDeleteDelay    float64 `json:"lazyDeleteDelay,omitempty"`
	Epoch              float64 `json:"epoch,omitempty"`              // Scarlett epoch seconds
	AccessesPerReplica float64 `json:"accessesPerReplica,omitempty"` // Scarlett quota
	MaxExtraReplicas   int     `json:"maxExtraReplicas,omitempty"`   // Scarlett cap

	// Replication overrides the kind's admission/eviction rules.
	Replication *policy.RuleSet `json:"replication,omitempty"`
	// Repair overrides the dfs repair-target ranking terms.
	Repair []policy.Term `json:"repair,omitempty"`
	// Speculation overrides the straggler-qualification rule.
	Speculation *policy.RuleSpec `json:"speculation,omitempty"`
	// Blacklist overrides the node-blacklist gate.
	Blacklist *policy.RuleSpec `json:"blacklist,omitempty"`
	// FailJob overrides the attempt-limit job-fail gate.
	FailJob *policy.RuleSpec `json:"failJob,omitempty"`
}

// PolicySet is a built PolicySpec, ready to wire into runner.Options.
// The embedded PolicySpec is the resolved arm: the canonical Kind, Name
// defaulted to it, and every zero scalar filled from PolicyRows;
// core.ConfigFromSpec turns it into the run's core.Config. Spec is the
// spec as written, which a checkpoint's RunSpec serialises.
type PolicySet struct {
	PolicySpec
	Spec PolicySpec
}

// PolicyError reports one policy field outside its domain: a kind name
// PolicyRows does not hold, rules the kind does not run or that do not
// compile, or a scalar core.Config.Validate rejects. It is declared here,
// below core, so that a file's unknown kind (rejected by Build) and a bad
// scalar (rejected when the run starts) are one type; core calls it
// ConfigError.
type PolicyError struct {
	Field string // core.Config's JSON name for the field
	Value any    // the rejected value; nil for rules
	Err   error  // what is wrong with it
}

func (e *PolicyError) Error() string {
	if e.Value == nil {
		return fmt.Sprintf("policy %s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("policy %s = %v: %v", e.Field, e.Value, e.Err)
}

func (e *PolicyError) Unwrap() error { return e.Err }

// Build validates the spec and constructs the PolicySet. Replication
// rules may fill only the slots the kind runs (PolicyRow.CheckRules), and
// every rule tree is compiled once against a scratch seed stream, so
// malformed configs fail at load time, not mid-run. Zero scalars take
// the built-in defaults, so a bare {"kind": X} runs exactly -policy X:
// p, threshold and budget come from the ElephantTrap row (the
// -p/-threshold/-budget flag defaults, which the flags apply to every
// kind), and the Scarlett knobs from the kind's own row. Ranges are
// checked when the run starts (core.Config.Validate).
func (s PolicySpec) Build() (*PolicySet, error) {
	row, err := LookupPolicy(s.Kind)
	if err != nil {
		return nil, err
	}
	if err := row.CheckRules(s.Replication); err != nil {
		return nil, err
	}
	for _, t := range s.Repair {
		if t.Key == "" {
			return nil, fmt.Errorf("config: repair term needs a key")
		}
		if t.Weight == 0 {
			return nil, fmt.Errorf("config: repair term %q needs a non-zero weight (sign sets the direction)", t.Key)
		}
	}
	for _, r := range []struct {
		name string
		spec *policy.RuleSpec
	}{{"speculation", s.Speculation}, {"blacklist", s.Blacklist}, {"failJob", s.FailJob}} {
		if r.spec == nil {
			continue
		}
		if _, err := r.spec.Compile(0); err != nil {
			return nil, fmt.Errorf("config: %s rule: %w", r.name, err)
		}
	}

	set := &PolicySet{PolicySpec: s, Spec: s}
	set.Kind = row.Name
	if set.Name == "" {
		set.Name = row.Name
	}
	fill(&set.P, etDefaults.P)
	fill(&set.Threshold, etDefaults.Threshold)
	fill(&set.Budget, etDefaults.Budget)
	fill(&set.Epoch, row.Defaults.Epoch)
	fill(&set.AccessesPerReplica, row.Defaults.AccessesPerReplica)
	fill(&set.MaxExtraReplicas, row.Defaults.MaxExtraReplicas)
	return set, nil
}

// fill sets a zero *v to def.
func fill[T int | int64 | float64](v *T, def T) {
	if *v == 0 {
		*v = def
	}
}

// ReadPolicy strictly decodes (DecodeStrict) and builds a policy config
// from JSON.
func ReadPolicy(r io.Reader) (*PolicySet, error) {
	var spec PolicySpec
	if err := DecodeStrict(r, &spec); err != nil {
		return nil, fmt.Errorf("config: decode policy: %w", err)
	}
	return spec.Build()
}

// MarshalJSON writes the set as the spec it was built from, so a
// checkpoint records the declarative arm and not its compiled form.
func (s *PolicySet) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Spec)
}

// UnmarshalJSON strictly decodes a spec and builds it. Build is pure, so
// the set equals the one the spec was written from.
func (s *PolicySet) UnmarshalJSON(b []byte) error {
	set, err := ReadPolicy(bytes.NewReader(b))
	if err != nil {
		return err
	}
	*s = *set
	return nil
}

// LoadPolicy reads a policy config file (the -policy-file flag).
func LoadPolicy(path string) (*PolicySet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := ReadPolicy(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// Render writes the spec in canonical indented JSON — the fingerprint
// FuzzPolicyConfig holds fixed across parse→render round trips, and the
// exact bytes of the committed configs/*.json built-ins.
func (s PolicySpec) Render() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BuiltinPolicySpec returns the table row for a policy name as a spec:
// the named kind with its default scalars spelled out and no rule
// overrides. Running one of these through a -policy-file is
// byte-identical to the plain -policy run — the equivalence the CI
// policy-determinism job pins.
func BuiltinPolicySpec(name string) (PolicySpec, error) {
	row, err := LookupPolicy(name)
	if err != nil {
		return PolicySpec{}, err
	}
	spec := row.Defaults
	spec.Name, spec.Kind = row.Name, row.Name
	return spec, nil
}

// BuiltinPolicy builds the named built-in arm.
func BuiltinPolicy(name string) (*PolicySet, error) {
	spec, err := BuiltinPolicySpec(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}
