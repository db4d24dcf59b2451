package topology

// Pod reports the aggregation pod of a node.
func (v *Virtual) Pod(n NodeID) int { return v.podOf[n] }
