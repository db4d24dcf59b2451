// Package core implements DARE, the paper's contribution: distributed,
// adaptive data replication run independently at each data node (§IV).
//
// Each node observes the map tasks scheduled on it. A task whose input
// block is *not* local has already fetched the block over the network —
// DARE captures that existing transfer and may insert the block into the
// local data node as a new dynamic replica, at zero extra network cost.
// One ReplicaCache per node holds that capture path; the policies differ
// only in when admission runs and in their victim order:
//
//   - GreedyLRU (paper Algorithm 1): replicate every remote read; evict
//     least-recently-used dynamic replicas to stay within the replication
//     budget. GreedyLFU evicts the least-frequently-used instead.
//   - ElephantTrap (paper Algorithm 2): replicate remote reads only with
//     probability p, track accesses in a circular list, and age entries by
//     halving their counts while scanning for victims ("competitive
//     aging") — an adaptation of the ElephantTrap heavy-hitter structure.
//   - Vanilla Hadoop denies every capture.
//
// A Manager wires the per-node caches to the name node, applying
// replication/eviction decisions and handling lazy deletion. Scarlett is
// the epoch-based proactive baseline the paper compares against.
package core

import (
	"fmt"
	"slices"

	"dare/internal/config"
	"dare/internal/dfs"
)

// PolicyKind enumerates the replication policies under evaluation.
type PolicyKind int

const (
	// NonePolicy is vanilla Hadoop: static replication only.
	NonePolicy PolicyKind = iota
	// GreedyLRUPolicy is Algorithm 1.
	GreedyLRUPolicy
	// ElephantTrapPolicy is Algorithm 2.
	ElephantTrapPolicy
	// ScarlettPolicy is the epoch-based proactive baseline of §VI
	// (Ananthanarayanan et al., EuroSys'11), for head-to-head adaptation
	// comparisons.
	ScarlettPolicy
	// GreedyLFUPolicy is the least-frequently-used variant of the greedy
	// approach — the other traditional eviction scheme §IV names.
	GreedyLFUPolicy
)

// kindNames is the one kind→name array: String, ParsePolicyKind and
// Config.Validate's kind check all read it. The names are rows of
// config.PolicyRows, which holds everything else about a kind. The
// values are fixed: a checkpoint spec serialises "kind" as the int.
var kindNames = [...]string{
	NonePolicy:         "vanilla",
	GreedyLRUPolicy:    "lru",
	ElephantTrapPolicy: "elephanttrap",
	ScarlettPolicy:     "scarlett",
	GreedyLFUPolicy:    "lfu",
}

// valid reports whether k is one of the kinds above.
func (k PolicyKind) valid() bool { return k >= 0 && int(k) < len(kindNames) }

// String implements fmt.Stringer; the names match the figure legends.
func (k PolicyKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
	return kindNames[k]
}

// ParsePolicyKind converts a CLI/config spelling into a PolicyKind. The
// accepted spellings (and the one unknown-policy error) come from
// config.PolicyRows, so every parse site — this function, config files,
// both CLIs — agrees on names and aliases.
func ParsePolicyKind(s string) (PolicyKind, error) {
	row, _ := config.LookupPolicy(s) // an unknown s gets the zero row
	k := PolicyKind(slices.Index(kindNames[:], row.Name))
	if !k.valid() {
		return 0, config.ErrUnknownPolicy(s)
	}
	return k, nil
}

// row returns k's row of config.PolicyRows; an invalid k gets the zero
// row, which runs no rule.
func (k PolicyKind) row() config.PolicyRow {
	row, _ := config.LookupPolicy(k.String())
	return row
}

// Decision is a node policy's reaction to one scheduled map task.
type Decision struct {
	// Replicate requests that the task's input block be inserted into the
	// local data node as a dynamic replica.
	Replicate bool
	// Evict lists dynamic replicas to mark for lazy deletion, freeing
	// budget for the insertion. Victims are chosen by the policy.
	Evict []dfs.BlockID
}

// PolicyStats counts a node policy's activity. DiskWrites equals replicas
// created (each insertion writes one block to local disk) and is the
// quantity behind the paper's "ElephantTrap needs only 50% of the disk
// writes of greedy LRU" claim (§I).
//
// The counter semantics are uniform across all five policies; no policy
// gets a private interpretation:
//
//   - ReplicasCreated: dynamic replicas this policy inserted (one disk
//     write each).
//   - Evictions: tracked replicas marked for (lazy) deletion.
//   - RemoteSkipped: every observed non-local read that did not create a
//     new replica here — sampling misses, no evictable victim, reads of
//     blocks already tracked on this node, and policies whose inline path
//     never replicates (vanilla; Scarlett replicates only at epoch
//     boundaries).
//   - Refreshes: every observed read that updated an existing tracked
//     entry — LRU recency moves, LFU/ElephantTrap count bumps, and
//     Scarlett's repeat tally of a file already seen this epoch. Vanilla
//     tracks nothing, so its Refreshes stays 0 by this same rule rather
//     than by exception.
//
// A remote read of an already-tracked block therefore counts BOTH a
// Refresh (the entry was updated) and a RemoteSkipped (the remote read
// was not captured as a new replica).
type PolicyStats struct {
	ReplicasCreated int64
	Evictions       int64
	RemoteSkipped   int64
	Refreshes       int64
}

// DiskWrites reports block writes caused by dynamic replication.
func (s PolicyStats) DiskWrites() int64 { return s.ReplicasCreated }
