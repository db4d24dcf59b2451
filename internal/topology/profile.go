package topology

import (
	"dare/internal/config"
	"dare/internal/stats"
)

// FromProfile instantiates the topology described by a cluster profile.
// Dedicated profiles get a deterministic rack layout; virtual profiles get
// a provider-style random scatter drawn from g (part of the experiment's
// seeded state). The topology covers the slave nodes only — the master
// runs no tasks and stores no blocks, as in Hadoop.
func FromProfile(p *config.Profile, g *stats.RNG) *Topology {
	if p.Kind == config.Virtual {
		return NewVirtual(VirtualParams{
			Nodes:     p.Slaves,
			Racks:     p.Racks,
			Pods:      p.Pods,
			RTT:       p.RTT,
			PerHopRTT: p.PerHopRTT,
		}, g)
	}
	return NewDedicated(p.Slaves, p.RackSize, p.RTT)
}
