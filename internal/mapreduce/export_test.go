package mapreduce

import (
	"math"
	"testing"
)

// ForceLinearScan routes every job's block selection through the linear
// scan for the rest of the test, so a run can be replayed on the
// reference the inverted locality index must match.
func ForceLinearScan(t testing.TB) {
	prev := indexMinMaps
	indexMinMaps = math.MaxInt
	t.Cleanup(func() { indexMinMaps = prev })
}

// ForceHeartbeatCohorts fixes the heartbeat layout for the rest of the
// test: every cohort chunks size same-rack nodes (0 keeps the auto-scaled
// size). With perNode, each node instead ticks alone in a singleton
// cohort on the phase its size-node cohort would have, which is the
// per-node ticker reference the coalesced sweep must match (a singleton
// cohort fires exactly as a per-node ticker does; see the sim package's
// TestCohortMatchesPerNodeTickers).
func ForceHeartbeatCohorts(t testing.TB, size int, perNode bool) {
	prev := heartbeatCohorts
	heartbeatCohorts = func(c *Cluster, interval float64) ([]int, []float64) {
		s := size
		if s <= 0 {
			s = heartbeatCohortSize(len(c.Nodes))
		}
		cohortOf, phases := rackStrideCohorts(c, interval, s)
		if !perNode {
			return cohortOf, phases
		}
		own := make([]int, len(cohortOf))
		nodePhases := make([]float64, len(cohortOf))
		for i, co := range cohortOf {
			own[i] = i
			nodePhases[i] = phases[co]
		}
		return own, nodePhases
	}
	t.Cleanup(func() { heartbeatCohorts = prev })
}
