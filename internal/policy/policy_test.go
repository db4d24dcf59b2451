package policy

import (
	"testing"

	"dare/internal/stats"
)

func TestThresholdOps(t *testing.T) {
	cases := []struct {
		op   string
		lhs  float64
		rhs  float64
		want bool
	}{
		{"<", 1, 2, true}, {"<", 2, 2, false},
		{"<=", 2, 2, true}, {"<=", 3, 2, false},
		{">", 2, 1, true}, {">", 2, 2, false},
		{">=", 2, 2, true}, {">=", 1, 2, false},
		{"==", 2, 2, true}, {"==", 1, 2, false},
		{"!=", 1, 2, true}, {"!=", 2, 2, false},
	}
	for _, c := range cases {
		r := &Threshold{Key: "x", Op: c.op, Value: c.rhs}
		if got := r.Eval(MapCtx{"x": c.lhs}); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.lhs, c.op, c.rhs, got, c.want)
		}
	}
}

func TestThresholdMissingKeyIsFalse(t *testing.T) {
	r := &Threshold{Key: "x", Op: ">", Value: 0}
	if r.Eval(MapCtx{}) {
		t.Fatal("missing key should not fire")
	}
	rel := &Threshold{Key: "x", Op: ">", Of: "y", Factor: 2}
	if rel.Eval(MapCtx{"x": 10}) {
		t.Fatal("missing Of key should not fire")
	}
}

func TestThresholdRelational(t *testing.T) {
	// elapsed > 1.5 × mean: the speculation shape.
	r := &Threshold{Key: "elapsed", Op: ">", Of: "mean", Factor: 1.5}
	if !r.Eval(MapCtx{"elapsed": 16, "mean": 10}) {
		t.Fatal("16 > 1.5*10 should fire")
	}
	if r.Eval(MapCtx{"elapsed": 15, "mean": 10}) {
		t.Fatal("15 > 1.5*10 should not fire")
	}
	// Factor 0 defaults to 1.
	eq := &Threshold{Key: "a", Op: ">=", Of: "b"}
	if !eq.Eval(MapCtx{"a": 3, "b": 3}) {
		t.Fatal("factor default 1: 3 >= 3 should fire")
	}
}

// TestProbabilityMatchesRNGBool pins the equivalence the ElephantTrap
// golden gate relies on: a compiled Probability consumes its stream
// exactly as direct rng.Bool(p) calls would.
func TestProbabilityMatchesRNGBool(t *testing.T) {
	for _, p := range []float64{0, 0.3, 0.7, 1} {
		rule := NewProbability(p, stats.NewRNG(99))
		ref := stats.NewRNG(99)
		for i := 0; i < 200; i++ {
			if got, want := rule.Eval(MapCtx{}), ref.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: rule=%v rng=%v", p, i, got, want)
			}
		}
	}
}

func TestRateWindow(t *testing.T) {
	r := NewRateWindow(60, 3)
	fire := func(now float64) bool { return r.Eval(MapCtx{"now": now}) }
	if fire(0) || fire(10) {
		t.Fatal("fewer than 3 occurrences should not fire")
	}
	if !fire(20) {
		t.Fatal("3 occurrences within 60s should fire")
	}
	// Window slides: at t=100 the occurrences at 0,10,20 have expired.
	if fire(100) {
		t.Fatal("expired occurrences should not count")
	}
	if fire(110) {
		t.Fatal("only 2 in window")
	}
	if !fire(120) {
		t.Fatal("3 again within window")
	}
}

func TestCombinators(t *testing.T) {
	yes, no := Allow(), Deny()
	if !Any(no, yes).Eval(nil) || Any(no, no).Eval(nil) {
		t.Fatal("any")
	}
	if !All(yes, yes).Eval(nil) || All(yes, no).Eval(nil) {
		t.Fatal("all")
	}
	if Not(yes).Eval(nil) || !Not(no).Eval(nil) {
		t.Fatal("not")
	}
}

func TestWeightedScore(t *testing.T) {
	r := &WeightedScore{Terms: []Term{{Key: "a", Weight: 2}, {Key: "b", Weight: -1}}, Min: 3}
	if !r.Eval(MapCtx{"a": 2, "b": 1}) { // 4-1 = 3 >= 3
		t.Fatal("boundary should fire")
	}
	if r.Eval(MapCtx{"a": 2, "b": 2}) { // 4-2 = 2 < 3
		t.Fatal("below min should not fire")
	}
	// Missing keys contribute zero.
	if r.Eval(MapCtx{"b": -2}) { // 0+2 = 2 < 3
		t.Fatal("missing key should contribute 0")
	}
}

func TestEpsilonGreedyExploitsBestArm(t *testing.T) {
	// Two arms: deny and allow. Epsilon 0 → pure exploitation. Reward
	// tracks "local"; arm 1 (allow) earns reward 1, arm 0 earns 0.
	// Start on arm 0, feed zero reward, and check the bandit switches to
	// whichever arm has the better mean once arm 1 has been explored.
	eg := NewEpsilonGreedy(0, 10, "", []Rule{Deny(), Allow()}, stats.NewRNG(7))
	// Window 1: arm 0 (initial), zero reward.
	for now := 0.0; now < 10; now++ {
		if eg.Eval(MapCtx{"now": now, "local": 0}) {
			t.Fatal("arm 0 is deny")
		}
	}
	// Boundary crossing re-selects: all means are 0, tie → arm 0 stays.
	eg.Eval(MapCtx{"now": 10, "local": 0})
	if eg.current != 0 {
		t.Fatalf("tie should keep lowest arm, got %d", eg.current)
	}
	// Seed arm 1 with reward by forcing exploration via a fresh bandit.
	eg2 := NewEpsilonGreedy(1, 10, "", []Rule{Deny(), Allow()}, stats.NewRNG(7))
	sawArm1 := false
	for now := 0.0; now < 500; now++ {
		eg2.Eval(MapCtx{"now": now, "local": float64(eg2.current)})
		if eg2.current == 1 {
			sawArm1 = true
		}
	}
	if !sawArm1 {
		t.Fatal("epsilon=1 should explore arm 1")
	}
	// Now exploit: with reward == arm index, arm 1's mean dominates.
	eg2.Epsilon = 0
	eg2.Eval(MapCtx{"now": 1000, "local": float64(eg2.current)})
	if eg2.current != 1 {
		t.Fatalf("exploitation should pick arm 1, got %d", eg2.current)
	}
}

func TestEpsilonGreedyDeterministic(t *testing.T) {
	build := func() *EpsilonGreedy {
		arms := []Rule{NewProbability(0.2, stats.NewRNG(1)), NewProbability(0.8, stats.NewRNG(2))}
		return NewEpsilonGreedy(0.3, 5, "", arms, stats.NewRNG(3))
	}
	a, b := build(), build()
	for now := 0.0; now < 300; now++ {
		ctx := MapCtx{"now": now, "local": float64(int(now) % 2)}
		if a.Eval(ctx) != b.Eval(ctx) {
			t.Fatalf("diverged at now=%v", now)
		}
	}
}

// TestSeedAllocFirstStatefulGetsRoot pins the compile contract that
// keeps ElephantTrap goldens byte-identical: the first stateful node in
// a spec consumes the root stream directly.
func TestSeedAllocFirstStatefulGetsRoot(t *testing.T) {
	spec := &RuleSpec{Rule: "probability", P: 0.3}
	rule, err := spec.CompileWith(stats.NewRNG(1234))
	if err != nil {
		t.Fatal(err)
	}
	ref := stats.NewRNG(1234)
	for i := 0; i < 100; i++ {
		if rule.Eval(MapCtx{}) != ref.Bool(0.3) {
			t.Fatalf("draw %d diverged: compiled rule does not own the root stream", i)
		}
	}
}

func TestRuleSetCompileAdmitGetsRoot(t *testing.T) {
	// The ElephantTrap built-in set's only stateful node is the admit
	// probability; compiled against a node stream it must replay that
	// stream.
	rs := RuleSet{
		Admit:  &RuleSpec{Rule: "probability", P: 0.3},
		Victim: &RuleSpec{Rule: "threshold", Key: "same_file", Op: "==", Value: 0},
		Aged:   &RuleSpec{Rule: "threshold", Key: "count", Op: "<", Value: 1},
	}
	rules, err := rs.CompileWith(stats.NewRNG(55))
	if err != nil {
		t.Fatal(err)
	}
	ref := stats.NewRNG(55)
	for i := 0; i < 100; i++ {
		if rules.Admit.Eval(MapCtx{}) != ref.Bool(0.3) {
			t.Fatalf("draw %d diverged", i)
		}
	}
	if rules.Victim == nil || rules.Aged == nil {
		t.Fatal("ET default set should compile victim and aged rules")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []*RuleSpec{
		{Rule: "nope"},
		{},
		{Rule: "threshold", Op: ">"},
		{Rule: "threshold", Key: "x", Op: "~"},
		{Rule: "probability", P: 1.5},
		{Rule: "ratewindow", Window: 0, AtLeast: 1},
		{Rule: "ratewindow", Window: 5, AtLeast: 0},
		{Rule: "not"},
		{Rule: "not", Rules: []*RuleSpec{{Rule: "allow"}, {Rule: "allow"}}},
		{Rule: "any"},
		{Rule: "all"},
		{Rule: "weightedscore"},
		{Rule: "epsilongreedy", Epsilon: 0.1, Window: 10},
		{Rule: "epsilongreedy", Epsilon: 2, Window: 10, Arms: []*RuleSpec{{Rule: "allow"}}},
		{Rule: "epsilongreedy", Epsilon: 0.1, Window: 0, Arms: []*RuleSpec{{Rule: "allow"}}},
		{Rule: "any", Rules: []*RuleSpec{{Rule: "bogus"}}},
	}
	for i, s := range bad {
		if _, err := s.Compile(1); err == nil {
			t.Errorf("spec %d should not compile: %+v", i, s)
		}
	}
}

func TestStateful(t *testing.T) {
	if (&RuleSpec{Rule: "allow"}).Stateful() {
		t.Fatal("allow is stateless")
	}
	nested := &RuleSpec{Rule: "any", Rules: []*RuleSpec{
		{Rule: "threshold", Key: "x", Op: ">", Value: 1},
		{Rule: "all", Rules: []*RuleSpec{{Rule: "probability", P: 0.5}}},
	}}
	if !nested.Stateful() {
		t.Fatal("nested probability is stateful")
	}
	bandit := &RuleSpec{Rule: "epsilongreedy", Epsilon: 0.1, Window: 10,
		Arms: []*RuleSpec{{Rule: "allow"}}}
	if !bandit.Stateful() {
		t.Fatal("bandit is stateful")
	}
}

func TestRankerLex(t *testing.T) {
	r := &Ranker{Terms: DefaultRepairTerms()}
	var a, b []float64
	fresh := MapCtx{"rack_fresh": 1, "load": 100}
	stale := MapCtx{"rack_fresh": 0, "load": 5}
	a = r.ScoreInto(a, fresh)
	b = r.ScoreInto(b, stale)
	if !LexBetter(a, b) {
		t.Fatal("fresh rack beats lighter load")
	}
	light := MapCtx{"rack_fresh": 1, "load": 50}
	b = r.ScoreInto(b, light)
	if LexBetter(a, b) || !LexBetter(b, a) {
		t.Fatal("same freshness: lighter load wins")
	}
	// Equal vectors: no winner, caller keeps first-seen.
	b = r.ScoreInto(b, fresh)
	if LexBetter(a, b) || LexBetter(b, a) {
		t.Fatal("equal vectors must not beat each other")
	}
}

func TestRankerMissingKeyLoses(t *testing.T) {
	r := &Ranker{Terms: []Term{{Key: "x", Weight: 1}}}
	var a, b []float64
	a = r.ScoreInto(a, MapCtx{"x": -1e18})
	b = r.ScoreInto(b, MapCtx{})
	if !LexBetter(a, b) {
		t.Fatal("candidate missing the key must lose")
	}
}

func TestDefaultSpeculationFactorFallback(t *testing.T) {
	spec := DefaultSpeculation(0)
	if spec.Rules[2].Factor != 1.5 {
		t.Fatalf("factor <= 1 should fall back to 1.5, got %v", spec.Rules[2].Factor)
	}
	spec = DefaultSpeculation(2)
	if spec.Rules[2].Factor != 2 {
		t.Fatal("explicit factor kept")
	}
	rule, err := spec.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := MapCtx{"completed_maps": 3, "attempts": 1, "elapsed": 21, "mean_map": 10}
	if !rule.Eval(ctx) {
		t.Fatal("qualified straggler should fire")
	}
	ctx["attempts"] = 2
	if rule.Eval(ctx) {
		t.Fatal("already speculated task should not fire")
	}
}
