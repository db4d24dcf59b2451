// Package policy is the declarative decision layer of the reproduction:
// a small typed rule/predicate combinator library, a JSON spec front end
// for composing rules from config files, and an `opa test`-style
// table-test harness (RunTable) for pinning decisions row by row.
//
// The design follows OPA's model of policies as independently testable
// rules over an input document: every decision point in the simulator
// (replication admission and eviction in internal/core, repair-target
// ranking in internal/dfs, speculation qualification and blacklisting in
// internal/mapreduce) evaluates a Rule against a Context of named scalars
// instead of hard-coding the comparison. The data structures that *carry*
// the decisions — circular lists, heaps, per-node block lists — stay native
// Go; only the predicates moved here.
//
// Determinism: rules never reach for ambient randomness or wall clocks.
// Probabilistic combinators own a *stats.RNG handed to them at compile
// time, and time-aware combinators read the simulated clock from the
// Context ("now"). Compiling the same spec against the same seed stream
// therefore reproduces the exact decision sequence — the property the
// golden tests and the built-in-vs-config-file equivalence gates rely on.
package policy

// Context supplies the named scalars a rule may read. Decision sites
// implement it with small reusable structs (a switch over the key names)
// so evaluation allocates nothing on hot paths; tests use MapCtx.
//
// The second return reports whether the key exists in this context.
// Rules treat a missing key as "condition not met" rather than an error:
// a config-file rule referencing a key its decision site does not supply
// simply never fires.
type Context interface {
	Val(key string) (float64, bool)
}

// MapCtx is the map-backed Context used by tests and the table harness.
type MapCtx map[string]float64

// Val implements Context.
func (m MapCtx) Val(key string) (float64, bool) {
	v, ok := m[key]
	return v, ok
}

// Rule is one boolean predicate over a Context. Implementations may hold
// internal state (sampling streams, rate windows, bandit tallies), so a
// compiled Rule instance must not be shared across independent decision
// streams — compile one per stream (e.g. per data node).
type Rule interface {
	Eval(ctx Context) bool
}
