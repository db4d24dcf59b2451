package mapreduce

import (
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/topology"
)

// localityIndexMaintainer keeps every active job's inverted locality index
// in sync with the name node's replica map by subscribing to replica
// events on the cluster bus: additions (placement, DARE announce, repair,
// balancer moves) push heap entries; removals (eviction, node loss,
// balancer moves) drop them eagerly so a vanished replica is never offered
// as local again. It replaces the tracker's old single-slot replica
// hook, whose removal half was a silent no-op.
type localityIndexMaintainer struct {
	t *Tracker
}

// Kinds implements event.KindFilter.
func (m *localityIndexMaintainer) Kinds() []event.Kind {
	return []event.Kind{event.ReplicaAdd, event.ReplicaRepair, event.ReplicaRemove}
}

// HandleEvent implements event.Subscriber. Jobs are updated independently
// (no publishes, no engine calls), so iteration order is immaterial to the
// outcome; the arrival-ordered slice just makes the sweep cheap.
func (m *localityIndexMaintainer) HandleEvent(ev event.Event) {
	switch ev.Kind {
	case event.ReplicaAdd, event.ReplicaRepair:
		b, node := dfs.BlockID(ev.Block), topology.NodeID(ev.Node)
		for _, j := range m.t.active {
			j.onReplicaAdded(b, node)
		}
	case event.ReplicaRemove:
		b, node := dfs.BlockID(ev.Block), topology.NodeID(ev.Node)
		for _, j := range m.t.active {
			j.onReplicaRemoved(b, node)
		}
	}
}
