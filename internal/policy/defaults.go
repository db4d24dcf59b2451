package policy

// Built-in rule specs for the decisions outside replication. These are
// the declarative spellings of the decisions the simulator historically
// hard-coded; compiling them against the same seed streams reproduces
// the hard-coded behavior decision for decision, which is what keeps the
// goldens byte-identical. The replication rule sets belong to the policy
// kinds, so they live in config's kind table.

// DefaultRepairTerms is the dfs repair-target ranking: prefer a rack
// holding no replica of the block, then the least-loaded node (by
// primary bytes), first-seen (lowest node ID) on full ties.
func DefaultRepairTerms() []Term {
	return []Term{
		{Key: "rack_fresh", Weight: 1},
		{Key: "load", Weight: -1},
	}
}

// DefaultSpeculation is the straggler-qualification rule: a map task is
// speculatable once the job has at least 3 completed maps, the task has
// exactly one running attempt, and it has run longer than factor × the
// job's mean map time. factor <= 1 falls back to 1.5, mirroring the
// profile default.
func DefaultSpeculation(factor float64) *RuleSpec {
	if factor <= 1 {
		factor = 1.5
	}
	return &RuleSpec{Rule: "all", Rules: []*RuleSpec{
		{Rule: "threshold", Key: "completed_maps", Op: ">=", Value: 3},
		{Rule: "threshold", Key: "attempts", Op: "==", Value: 1},
		{Rule: "threshold", Key: "elapsed", Op: ">", Of: "mean_map", Factor: factor},
	}}
}

// DefaultBlacklist is the Hadoop-style node blacklist gate: blacklist
// after `after` task failures on the node since its last recovery.
func DefaultBlacklist(after int) *RuleSpec {
	return &RuleSpec{Rule: "threshold", Key: "node_failures", Op: ">=", Value: float64(after)}
}

// DefaultFailJob is the attempt-limit gate: fail the job once a task
// has used `max` attempts.
func DefaultFailJob(max int) *RuleSpec {
	return &RuleSpec{Rule: "threshold", Key: "attempts", Op: ">=", Value: float64(max)}
}
