package policy

import (
	"fmt"

	"dare/internal/stats"
)

// RuleSpec is the JSON form of a rule tree. Exactly one combinator is
// named by Rule; the other fields parameterize it:
//
//	{"rule":"allow"} / {"rule":"deny"}
//	{"rule":"threshold","key":"count","op":"<","value":1}
//	{"rule":"threshold","key":"elapsed","op":">","of":"mean_map","factor":1.5}
//	{"rule":"probability","p":0.3}
//	{"rule":"ratewindow","window":60,"atLeast":3}
//	{"rule":"weightedscore","terms":[{"key":"load","weight":-1}],"min":0}
//	{"rule":"not","rules":[...]} (one sub-rule)
//	{"rule":"any","rules":[...]} / {"rule":"all","rules":[...]}
//	{"rule":"epsilongreedy","epsilon":0.1,"window":30,"arms":[...]}
//
// Unknown combinator names and malformed parameters are compile errors,
// not silent false rules.
type RuleSpec struct {
	Rule string `json:"rule"`

	// threshold
	Key    string  `json:"key,omitempty"`
	Op     string  `json:"op,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Of     string  `json:"of,omitempty"`
	Factor float64 `json:"factor,omitempty"`

	// probability
	P float64 `json:"p,omitempty"`

	// ratewindow (Window shared with epsilongreedy)
	Window  float64 `json:"window,omitempty"`
	AtLeast int     `json:"atLeast,omitempty"`

	// any / all / not
	Rules []*RuleSpec `json:"rules,omitempty"`

	// weightedscore
	Terms []Term  `json:"terms,omitempty"`
	Min   float64 `json:"min,omitempty"`

	// epsilongreedy
	Epsilon   float64     `json:"epsilon,omitempty"`
	RewardKey string      `json:"rewardKey,omitempty"`
	Arms      []*RuleSpec `json:"arms,omitempty"`
}

// Stateful reports whether compiling this spec produces a rule that
// draws randomness or accumulates state, i.e. needs its own seed stream
// per decision stream.
func (s *RuleSpec) Stateful() bool {
	if s == nil {
		return false
	}
	switch s.Rule {
	case "probability", "ratewindow", "epsilongreedy":
		return true
	}
	for _, sub := range s.Rules {
		if sub.Stateful() {
			return true
		}
	}
	for _, arm := range s.Arms {
		if arm.Stateful() {
			return true
		}
	}
	return false
}

// seedAlloc hands seed streams to stateful rule nodes during compilation.
// The FIRST stateful node receives the root stream itself; later ones get
// independent splits. This is what makes a compiled built-in sampling
// spec — whose only stateful node is the admission probability — consume
// the per-node stream exactly like the historical hard-coded policy did,
// keeping goldens byte-identical. stats.RNG.Split derives children from
// the parent's seed without consuming parent state, so handing out the
// root first is safe.
type seedAlloc struct {
	root *stats.RNG
	n    uint64
}

func (a *seedAlloc) next() *stats.RNG {
	a.n++
	if a.n == 1 {
		return a.root
	}
	return a.root.Split(0x5EED + a.n)
}

// Compile builds the rule tree with a fresh stream derived from seed.
// Stateless specs never touch the stream.
func (s *RuleSpec) Compile(seed uint64) (Rule, error) {
	return s.CompileWith(stats.NewRNG(seed))
}

// CompileWith builds the rule tree, allocating seed streams for stateful
// nodes from rng (see seedAlloc for the allocation order contract).
func (s *RuleSpec) CompileWith(rng *stats.RNG) (Rule, error) {
	alloc := &seedAlloc{root: rng}
	return s.compile(alloc)
}

func (s *RuleSpec) compile(alloc *seedAlloc) (Rule, error) {
	if s == nil {
		return nil, fmt.Errorf("policy: nil rule spec")
	}
	switch s.Rule {
	case "allow":
		return Allow(), nil
	case "deny":
		return Deny(), nil
	case "threshold":
		if s.Key == "" {
			return nil, fmt.Errorf("policy: threshold rule needs a key")
		}
		if err := checkOp(s.Op); err != nil {
			return nil, err
		}
		return &Threshold{Key: s.Key, Op: s.Op, Value: s.Value, Of: s.Of, Factor: s.Factor}, nil
	case "probability":
		if s.P < 0 || s.P > 1 {
			return nil, fmt.Errorf("policy: probability p=%v out of [0,1]", s.P)
		}
		return NewProbability(s.P, alloc.next()), nil
	case "ratewindow":
		if s.Window <= 0 {
			return nil, fmt.Errorf("policy: ratewindow needs window > 0")
		}
		if s.AtLeast < 1 {
			return nil, fmt.Errorf("policy: ratewindow needs atLeast >= 1")
		}
		_ = alloc.next() // reserve a stream slot: stateful, though it draws nothing
		return NewRateWindow(s.Window, s.AtLeast), nil
	case "not":
		if len(s.Rules) != 1 {
			return nil, fmt.Errorf("policy: not rule needs exactly one sub-rule, got %d", len(s.Rules))
		}
		sub, err := s.Rules[0].compile(alloc)
		if err != nil {
			return nil, err
		}
		return Not(sub), nil
	case "any", "all":
		if len(s.Rules) == 0 {
			return nil, fmt.Errorf("policy: %s rule needs sub-rules", s.Rule)
		}
		subs := make([]Rule, 0, len(s.Rules))
		for _, spec := range s.Rules {
			sub, err := spec.compile(alloc)
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		if s.Rule == "any" {
			return Any(subs...), nil
		}
		return All(subs...), nil
	case "weightedscore":
		if len(s.Terms) == 0 {
			return nil, fmt.Errorf("policy: weightedscore rule needs terms")
		}
		return &WeightedScore{Terms: s.Terms, Min: s.Min}, nil
	case "epsilongreedy":
		if s.Epsilon < 0 || s.Epsilon > 1 {
			return nil, fmt.Errorf("policy: epsilongreedy epsilon=%v out of [0,1]", s.Epsilon)
		}
		if s.Window <= 0 {
			return nil, fmt.Errorf("policy: epsilongreedy needs window > 0")
		}
		if len(s.Arms) == 0 {
			return nil, fmt.Errorf("policy: epsilongreedy needs arms")
		}
		rng := alloc.next()
		arms := make([]Rule, 0, len(s.Arms))
		for _, spec := range s.Arms {
			arm, err := spec.compile(alloc)
			if err != nil {
				return nil, err
			}
			arms = append(arms, arm)
		}
		return NewEpsilonGreedy(s.Epsilon, s.Window, s.RewardKey, arms, rng), nil
	case "":
		return nil, fmt.Errorf("policy: rule spec missing \"rule\" field")
	}
	return nil, fmt.Errorf("policy: unknown rule %q", s.Rule)
}

// RuleSet is the JSON form of a replication policy's decision points.
// Any field may be nil, meaning "use the policy kind's built-in default";
// a kind whose built-in set leaves a field nil never runs that rule.
type RuleSet struct {
	// Admit gates whether a non-local read creates a replica.
	Admit *RuleSpec `json:"admit,omitempty"`
	// Victim gates whether an eviction candidate may be evicted at all
	// (e.g. "not a block of the file being admitted": same_file == 0).
	Victim *RuleSpec `json:"victim,omitempty"`
	// Aged gates whether a candidate surviving Victim is evicted now or
	// aged and passed over (e.g. an aging sweep's count < threshold).
	Aged *RuleSpec `json:"aged,omitempty"`
}

// ReplicationRules is a compiled RuleSet bound to one decision stream
// (one data node).
type ReplicationRules struct {
	Admit  Rule
	Victim Rule
	Aged   Rule
}

// CompileWith compiles the set against one seed stream, allocating in
// the fixed order admit → victim → aged so that the same spec always
// maps the same stream to the same node. Nil specs compile to nil rules;
// callers substitute their built-in behavior.
func (rs *RuleSet) CompileWith(rng *stats.RNG) (ReplicationRules, error) {
	var out ReplicationRules
	if rs == nil {
		return out, nil
	}
	alloc := &seedAlloc{root: rng}
	var err error
	if rs.Admit != nil {
		if out.Admit, err = rs.Admit.compile(alloc); err != nil {
			return ReplicationRules{}, fmt.Errorf("admit: %w", err)
		}
	}
	if rs.Victim != nil {
		if out.Victim, err = rs.Victim.compile(alloc); err != nil {
			return ReplicationRules{}, fmt.Errorf("victim: %w", err)
		}
	}
	if rs.Aged != nil {
		if out.Aged, err = rs.Aged.compile(alloc); err != nil {
			return ReplicationRules{}, fmt.Errorf("aged: %w", err)
		}
	}
	return out, nil
}
