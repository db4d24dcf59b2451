package policy

import (
	"fmt"

	"dare/internal/stats"
)

// allowRule and denyRule are the constant predicates; config files spell
// them {"rule":"allow"} / {"rule":"deny"}.
type allowRule struct{}

func (allowRule) Eval(Context) bool { return true }

type denyRule struct{}

func (denyRule) Eval(Context) bool { return false }

// Allow returns the always-true rule.
func Allow() Rule { return allowRule{} }

// Deny returns the always-false rule.
func Deny() Rule { return denyRule{} }

// Threshold compares one context scalar against a bound:
//
//	ctx[Key]  Op  Value                (Of == "")
//	ctx[Key]  Op  Factor * ctx[Of]     (Of != "", Factor 0 means 1)
//
// Op is one of < <= > >= == !=. A missing Key (or Of) makes the rule
// false. The two-key form is what expresses relational gates like the
// speculation trigger "elapsed > factor × mean map time" without baking
// run statistics into the rule.
type Threshold struct {
	Key    string
	Op     string
	Value  float64
	Of     string
	Factor float64
}

// Eval implements Rule.
func (t *Threshold) Eval(ctx Context) bool {
	lhs, ok := ctx.Val(t.Key)
	if !ok {
		return false
	}
	rhs := t.Value
	if t.Of != "" {
		v, ok := ctx.Val(t.Of)
		if !ok {
			return false
		}
		f := t.Factor
		if f == 0 {
			f = 1
		}
		rhs = f * v
	}
	switch t.Op {
	case "<":
		return lhs < rhs
	case "<=":
		return lhs <= rhs
	case ">":
		return lhs > rhs
	case ">=":
		return lhs >= rhs
	case "==":
		return lhs == rhs
	case "!=":
		return lhs != rhs
	}
	return false
}

// checkOp validates a Threshold operator at compile time so config typos
// fail loudly instead of silently evaluating false.
func checkOp(op string) error {
	switch op {
	case "<", "<=", ">", ">=", "==", "!=":
		return nil
	}
	return fmt.Errorf("policy: unknown threshold op %q (want < <= > >= == !=)", op)
}

// Probability fires with probability P on every evaluation, drawing from
// its own seed stream. A sampling admission gate is exactly this rule:
// stats.RNG.Bool short-circuits P <= 0 and P >= 1 without consuming a
// draw, so compiled built-ins reproduce the historical draw sequence bit
// for bit.
type Probability struct {
	P   float64
	rng *stats.RNG
}

// NewProbability builds the sampling rule on a dedicated stream.
func NewProbability(p float64, rng *stats.RNG) *Probability {
	return &Probability{P: p, rng: rng}
}

// Eval implements Rule.
func (p *Probability) Eval(Context) bool { return p.rng.Bool(p.P) }

// RateWindow counts evaluations as occurrences on the simulated clock
// (context key "now") and fires when at least AtLeast occurrences —
// including the current one — fall within the trailing Window seconds.
// It expresses burst triggers like "blacklist on 3 failures within 60 s".
// A context without "now" counts occurrences at time 0 (the window never
// slides), degrading to a plain counter threshold.
type RateWindow struct {
	Window  float64
	AtLeast int
	times   []float64
}

// NewRateWindow builds the sliding-window rule.
func NewRateWindow(window float64, atLeast int) *RateWindow {
	return &RateWindow{Window: window, AtLeast: atLeast}
}

// Eval implements Rule.
func (r *RateWindow) Eval(ctx Context) bool {
	now, _ := ctx.Val("now")
	keep := r.times[:0]
	for _, t := range r.times {
		if t > now-r.Window {
			keep = append(keep, t)
		}
	}
	r.times = append(keep, now)
	return len(r.times) >= r.AtLeast
}

// anyRule fires when any sub-rule fires; evaluation short-circuits in
// order, which matters for stateful sub-rules.
type anyRule struct{ rules []Rule }

func (a *anyRule) Eval(ctx Context) bool {
	for _, r := range a.rules {
		if r.Eval(ctx) {
			return true
		}
	}
	return false
}

// allRule fires when every sub-rule fires; evaluation short-circuits in
// order.
type allRule struct{ rules []Rule }

func (a *allRule) Eval(ctx Context) bool {
	for _, r := range a.rules {
		if !r.Eval(ctx) {
			return false
		}
	}
	return true
}

// notRule inverts its sub-rule.
type notRule struct{ rule Rule }

func (n *notRule) Eval(ctx Context) bool { return !n.rule.Eval(ctx) }

// Any returns the disjunction of rules.
func Any(rules ...Rule) Rule { return &anyRule{rules: rules} }

// All returns the conjunction of rules.
func All(rules ...Rule) Rule { return &allRule{rules: rules} }

// Not returns the negation of rule.
func Not(rule Rule) Rule { return &notRule{rule: rule} }

// WeightedScore fires when the weighted sum of context scalars reaches
// Min: Σ Weight_i × ctx[Key_i] >= Min. Missing keys contribute zero, so a
// score over optional signals degrades gracefully.
type WeightedScore struct {
	Terms []Term
	Min   float64
}

// Eval implements Rule.
func (w *WeightedScore) Eval(ctx Context) bool {
	var sum float64
	for _, t := range w.Terms {
		if v, ok := ctx.Val(t.Key); ok {
			sum += t.Weight * v
		}
	}
	return sum >= w.Min
}

// EpsilonGreedy is the bandit combinator: it delegates each evaluation to
// the currently selected arm, credits the observed reward (context key
// RewardKey, default "local") to that arm, and at every Window seconds of
// simulated time re-selects — exploring a uniformly random arm with
// probability Epsilon, otherwise exploiting the arm with the best mean
// reward so far (ties break to the lowest arm index).
//
// With Probability arms of increasing P this is the ε-greedy
// replication-factor bandit over observed access skew: each arm is a
// replication aggressiveness, the reward is the locality the node is
// seeing, and the bandit learns per node which aggressiveness pays. All
// randomness comes from the rule's own compiled stream, so runs stay
// deterministic.
type EpsilonGreedy struct {
	Epsilon   float64
	Window    float64
	RewardKey string

	arms []Rule
	rng  *stats.RNG

	current     int
	windowStart float64
	started     bool
	pulls       []float64
	rewards     []float64
}

// NewEpsilonGreedy builds the bandit over arms on a dedicated stream.
func NewEpsilonGreedy(epsilon, window float64, rewardKey string, arms []Rule, rng *stats.RNG) *EpsilonGreedy {
	if rewardKey == "" {
		rewardKey = "local"
	}
	return &EpsilonGreedy{
		Epsilon:   epsilon,
		Window:    window,
		RewardKey: rewardKey,
		arms:      arms,
		rng:       rng,
		pulls:     make([]float64, len(arms)),
		rewards:   make([]float64, len(arms)),
	}
}

// Eval implements Rule.
func (e *EpsilonGreedy) Eval(ctx Context) bool {
	now, _ := ctx.Val("now")
	if !e.started {
		e.started = true
		e.windowStart = now
	}
	if reward, ok := ctx.Val(e.RewardKey); ok {
		e.pulls[e.current]++
		e.rewards[e.current] += reward
	}
	if now >= e.windowStart+e.Window {
		e.windowStart = now
		if e.rng.Bool(e.Epsilon) {
			e.current = e.rng.Intn(len(e.arms))
		} else {
			e.current = e.bestArm()
		}
	}
	return e.arms[e.current].Eval(ctx)
}

// bestArm returns the arm with the highest mean reward; unpulled arms
// score zero, ties break to the lowest index.
func (e *EpsilonGreedy) bestArm() int {
	best, bestMean := 0, -1.0
	for i := range e.arms {
		mean := 0.0
		if e.pulls[i] > 0 {
			mean = e.rewards[i] / e.pulls[i]
		}
		if mean > bestMean {
			best, bestMean = i, mean
		}
	}
	return best
}
