package core

import (
	"dare/internal/policy"
	"dare/internal/stats"
)

// replCtx is the reusable policy.Context for replication decisions. One
// instance lives inside each ReplicaCache and is re-primed per decision, so
// rule evaluation allocates nothing on the task-launch hot path.
//
// Keys supplied to admission rules: "local" (1 node-local, 0 remote),
// "size" (incoming block bytes), "used"/"budget" (replication budget
// state), "now" (simulated seconds). Victim/aged rules additionally see
// "count" (the candidate's access count, absent for LRU entries) and —
// victim rules only — "same_file" (1 when the candidate belongs to the
// incoming block's file).
type replCtx struct {
	local    float64
	size     float64
	used     float64
	budget   float64
	now      float64
	count    float64
	sameFile float64

	hasCount    bool
	hasSameFile bool
}

// Val implements policy.Context.
func (c *replCtx) Val(key string) (float64, bool) {
	switch key {
	case "local":
		return c.local, true
	case "size":
		return c.size, true
	case "used":
		return c.used, true
	case "budget":
		return c.budget, true
	case "now":
		return c.now, true
	case "count":
		return c.count, c.hasCount
	case "same_file":
		return c.sameFile, c.hasSameFile
	}
	return 0, false
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// admit primes the context for an admission decision.
func (c *replCtx) admit(local bool, size, used, budget int64, now float64) {
	c.local = boolF(local)
	c.size = float64(size)
	c.used = float64(used)
	c.budget = float64(budget)
	c.now = now
	c.hasCount = false
	c.hasSameFile = false
}

// candidate primes the context for an aging decision on one eviction
// candidate (same_file not yet known during the scan).
func (c *replCtx) candidate(count int64, hasCount bool) {
	c.count = float64(count)
	c.hasCount = hasCount
	c.hasSameFile = false
}

// sameFileIs supplies the same-file signal for the victim decision.
func (c *replCtx) sameFileIs(b bool) {
	c.sameFile = boolF(b)
	c.hasSameFile = true
}

// clock is the shared "now" source for policies; nil means time 0 (unit
// tests that never read the clock).
type clock func() float64

func (f clock) read() float64 {
	if f == nil {
		return 0
	}
	return f()
}

// mergedRuleSet is the kind's built-in rule set (its config row) with
// any non-nil fields of override taking precedence. This is how a
// -policy-file config replaces one decision (say, the admission gate)
// while inheriting the rest of the policy's behavior.
func mergedRuleSet(kind PolicyKind, p float64, threshold int64, override *policy.RuleSet) policy.RuleSet {
	rs := kind.row().Rules(p, int(threshold))
	if override != nil {
		if override.Admit != nil {
			rs.Admit = override.Admit
		}
		if override.Victim != nil {
			rs.Victim = override.Victim
		}
		if override.Aged != nil {
			rs.Aged = override.Aged
		}
	}
	return rs
}

// withBuiltins fills the nil fields of rules from kind's built-in set,
// compiled against rng (nil: a fixed stream). The built-in ElephantTrap
// p is clamped to [0, 1] and threshold to ≥ 0. Built-ins are valid by
// construction, so a compile failure is a programmer error.
func withBuiltins(kind PolicyKind, p float64, threshold int64, rules policy.ReplicationRules, rng *stats.RNG) policy.ReplicationRules {
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	rs := kind.row().Rules(min(max(p, 0), 1), int(max(threshold, 0)))
	builtin, err := rs.CompileWith(rng)
	if err != nil {
		panic("core: built-in rule set for " + kind.String() + ": " + err.Error())
	}
	if rules.Admit == nil {
		rules.Admit = builtin.Admit
	}
	if rules.Victim == nil {
		rules.Victim = builtin.Victim
	}
	if rules.Aged == nil {
		rules.Aged = builtin.Aged
	}
	return rules
}
