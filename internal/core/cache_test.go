package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/stats"
)

// pinStore sizes a one-node manager with 1000 primary bytes. The pinned
// runs drive the node policy directly, so no other store method runs.
type pinStore struct{ MetaStore }

func (pinStore) N() int                   { return 1 }
func (pinStore) TotalPrimaryBytes() int64 { return 1000 }

// newCache builds one node's cache of kind under the built-in rules, the
// way Manager.node builds it; ElephantTrap's tests use newET for its
// sampling stream and parameters.
func newCache(kind PolicyKind, budget int64) *ReplicaCache {
	return newReplicaCache(kind, budget, withBuiltins(kind, 0, 0, policy.ReplicationRules{}, nil), nil)
}

// pinPolicy is the part of a node policy the pinned runs drive.
type pinPolicy interface {
	OnMapTask(b dfs.BlockID, f dfs.FileID, size int64, local bool) Decision
	Stats() PolicyStats
}

// pinOverride is a stateful rule set: a probability admit, a same-file
// guard that also flips a coin per candidate and, for ElephantTrap, a
// rate-window aging rule on the simulated clock.
func pinOverride(kind PolicyKind) *policy.RuleSet {
	rs := &policy.RuleSet{
		Admit: &policy.RuleSpec{Rule: "probability", P: 0.7},
		Victim: &policy.RuleSpec{Rule: "all", Rules: []*policy.RuleSpec{
			{Rule: "threshold", Key: "same_file", Op: "==", Value: 0},
			{Rule: "probability", P: 0.8},
		}},
	}
	if kind == ElephantTrapPolicy {
		rs.Aged = &policy.RuleSpec{Rule: "ratewindow", Window: 1, AtLeast: 3}
	}
	return rs
}

// drivePinned feeds p 5,000 seeded map tasks over 40 blocks of six files
// (sizes 90–110 against a 1000-byte budget, a third of the reads local)
// and returns the Decision stream followed by the final counters.
func drivePinned(p pinPolicy, now *float64) []byte {
	var out bytes.Buffer
	g := stats.NewRNG(31)
	for i := 0; i < 5000; i++ {
		*now = float64(i) * 0.05
		b := dfs.BlockID(g.Intn(40))
		d := p.OnMapTask(b, dfs.FileID(b%6), 90+int64(b%3)*10, g.Intn(3) == 0)
		fmt.Fprintln(&out, d.Replicate, d.Evict)
	}
	fmt.Fprintf(&out, "%+v\n", p.Stats())
	return out.Bytes()
}

// TestReplicaCacheDecisionsPinned pins every node policy's capture path:
// a SHA-256 over the Decision stream, the final Stats and the manager's
// state image, for each kind under its built-in rules and under a
// stateful override set. The built-in cells also check that a cache built
// on withBuiltins alone makes the same decisions as the manager's node.
func TestReplicaCacheDecisionsPinned(t *testing.T) {
	want := map[string]string{
		"vanilla/builtin":       "851882dd83b9b2f8e5e6997f249a49cb37d898e1d9137a5e66e84946edd45b04",
		"vanilla/override":      "851882dd83b9b2f8e5e6997f249a49cb37d898e1d9137a5e66e84946edd45b04",
		"lru/builtin":           "82875fbbe3669be2d4c2669fd71ddc570a5aa04709409c1c1c111889c8e9930c",
		"lru/override":          "b8ca95f1fc207769837b7560552baebc18fcca4dfa4c8ab59b12336b08896e91",
		"lfu/builtin":           "b67ddf7f1a34d4c9f3a7e458696af9d38711d95b7013951d82ccd3250f1327a8",
		"lfu/override":          "74eee06054b47c926ea82f8e512ad5edb04cbb12bd9b67c667df92cd53d02aee",
		"elephanttrap/builtin":  "3c4294c66fcdd449e6c4a5a9317d964d0e6ac4546db25e44e519010a6970eeb4",
		"elephanttrap/override": "16fb2e6bfdca37a6f740d5eabbf02c8a3deeeae19baeae62a627ec914b04e607",
	}
	direct := map[PolicyKind]func() pinPolicy{
		NonePolicy:      func() pinPolicy { return newCache(NonePolicy, 0) },
		GreedyLRUPolicy: func() pinPolicy { return newCache(GreedyLRUPolicy, 1000) },
		GreedyLFUPolicy: func() pinPolicy { return newCache(GreedyLFUPolicy, 1000) },
		ElephantTrapPolicy: func() pinPolicy {
			rules := withBuiltins(ElephantTrapPolicy, 0.3, 1, policy.ReplicationRules{}, stats.NewRNG(29).Split(1))
			return newReplicaCache(ElephantTrapPolicy, 1000, rules, nil)
		},
	}
	for _, kind := range []PolicyKind{NonePolicy, GreedyLRUPolicy, GreedyLFUPolicy, ElephantTrapPolicy} {
		for _, override := range []bool{false, true} {
			name := kind.String() + "/builtin"
			if override {
				name = kind.String() + "/override"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Kind: kind, P: 0.3, Threshold: 1, BudgetFraction: 1}
				if override {
					cfg.Rules = pinOverride(kind)
				}
				var now float64
				m := NewManager(cfg, pinStore{}, stats.NewRNG(29), nil)
				m.SetNow(func() float64 { return now })
				transcript := drivePinned(m.node(0), &now)
				if len(m.Errors()) != 0 {
					t.Fatal(m.Errors())
				}
				if !override {
					if got := drivePinned(direct[kind](), &now); !bytes.Equal(got, transcript) {
						t.Fatal("the withBuiltins cache decides differently from the manager's node")
					}
				}
				sum := sha256.Sum256(append(transcript, encodeManager(t, m)...))
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Fatalf("digest %s, want %s", got, want[name])
				}
			})
		}
	}
}
