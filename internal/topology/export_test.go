package topology

// Pod reports the aggregation pod of a node of a virtual layout.
func (t *Topology) Pod(n NodeID) int { return t.podOf[n] }
