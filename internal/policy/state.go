package policy

import (
	"fmt"

	"dare/internal/snapshot"
)

// EncodeRuleState serializes a rule tree's mutable state — RNG stream
// positions, sliding-window times, bandit statistics — walking the tree
// depth-first in sub-rule order. The tree shape itself comes from the
// compiled spec (stored separately in the checkpoint), so decode walks an
// identically-shaped tree and only the mutable leaves ride the image.
func EncodeRuleState(e *snapshot.Enc, r Rule) error {
	switch v := r.(type) {
	case allowRule, denyRule, *Threshold, *WeightedScore:
		return nil
	case *Probability:
		return v.rng.EncodeState(e)
	case *RateWindow:
		e.U32(uint32(len(v.times)))
		for _, t := range v.times {
			e.F64(t)
		}
		return nil
	case *EpsilonGreedy:
		e.Int(v.current)
		e.F64(v.windowStart)
		e.Bool(v.started)
		for i := range v.arms {
			e.F64(v.pulls[i])
			e.F64(v.rewards[i])
			if err := EncodeRuleState(e, v.arms[i]); err != nil {
				return err
			}
		}
		return v.rng.EncodeState(e)
	case *anyRule:
		for _, sub := range v.rules {
			if err := EncodeRuleState(e, sub); err != nil {
				return err
			}
		}
		return nil
	case *allRule:
		for _, sub := range v.rules {
			if err := EncodeRuleState(e, sub); err != nil {
				return err
			}
		}
		return nil
	case *notRule:
		return EncodeRuleState(e, v.rule)
	default:
		return fmt.Errorf("policy: rule type %T has no state codec", r)
	}
}

// DecodeRuleState restores a rule tree's mutable state from an
// EncodeRuleState image. The tree must have been recompiled from the same
// spec, so shapes match node for node.
func DecodeRuleState(d *snapshot.Dec, r Rule) error {
	switch v := r.(type) {
	case allowRule, denyRule, *Threshold, *WeightedScore:
		return nil
	case *Probability:
		return v.rng.DecodeState(d)
	case *RateWindow:
		n := d.Count(8)
		if d.Err() != nil {
			return d.Err()
		}
		v.times = v.times[:0]
		for i := 0; i < n; i++ {
			v.times = append(v.times, d.F64())
		}
		return d.Err()
	case *EpsilonGreedy:
		v.current = d.Int()
		v.windowStart = d.F64()
		v.started = d.Bool()
		for i := range v.arms {
			v.pulls[i] = d.F64()
			v.rewards[i] = d.F64()
			if err := DecodeRuleState(d, v.arms[i]); err != nil {
				return err
			}
		}
		return v.rng.DecodeState(d)
	case *anyRule:
		for _, sub := range v.rules {
			if err := DecodeRuleState(d, sub); err != nil {
				return err
			}
		}
		return nil
	case *allRule:
		for _, sub := range v.rules {
			if err := DecodeRuleState(d, sub); err != nil {
				return err
			}
		}
		return nil
	case *notRule:
		return DecodeRuleState(d, v.rule)
	default:
		return fmt.Errorf("policy: rule type %T has no state codec", r)
	}
}
