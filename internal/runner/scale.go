package runner

import (
	"fmt"

	"dare/internal/config"
)

// ScaleProfile builds an n-node dedicated cluster for runs beyond the
// paper's testbeds: CCT's calibrated performance models, 40-node racks,
// and CCT's aggressive 0.25 s heartbeat — deliberately kept short at
// scale so a run exercises the heartbeat machinery under maximum
// pressure. perfbench's scale-10k workload runs on it.
func ScaleProfile(nodes int) *config.Profile {
	p := config.CCT()
	p.Name = fmt.Sprintf("scale-%d", nodes)
	p.Slaves = nodes
	p.RackSize = 40
	return p
}
