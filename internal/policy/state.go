package policy

import (
	"fmt"

	"dare/internal/snapshot"
)

// WalkRuleState walks a rule tree's mutable state — RNG stream
// positions, sliding-window times, bandit statistics — depth-first in
// sub-rule order. The tree shape itself comes from the compiled spec
// (stored separately in the checkpoint), so decoding walks a tree
// recompiled from the same spec, and only the mutable leaves ride the
// image.
func WalkRuleState(w *snapshot.Walker, r Rule) error {
	switch v := r.(type) {
	case allowRule, denyRule, *Threshold, *WeightedScore:
		return nil
	case *Probability:
		return v.rng.WalkState(w)
	case *RateWindow:
		snapshot.Len(w, &v.times, 8)
		for i := range v.times {
			w.F64(&v.times[i])
		}
		return w.Err()
	case *EpsilonGreedy:
		snapshot.Int(w, &v.current)
		w.F64(&v.windowStart)
		w.Bool(&v.started)
		for i := range v.arms {
			w.F64(&v.pulls[i])
			w.F64(&v.rewards[i])
			if err := WalkRuleState(w, v.arms[i]); err != nil {
				return err
			}
		}
		return v.rng.WalkState(w)
	case *anyRule:
		return walkRules(w, v.rules)
	case *allRule:
		return walkRules(w, v.rules)
	case *notRule:
		return WalkRuleState(w, v.rule)
	default:
		return fmt.Errorf("policy: rule type %T has no state codec", r)
	}
}

func walkRules(w *snapshot.Walker, rules []Rule) error {
	for _, sub := range rules {
		if err := WalkRuleState(w, sub); err != nil {
			return err
		}
	}
	return nil
}
