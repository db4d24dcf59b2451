package dfs

import "dare/internal/topology"

// CreateFile creates one file of numBlocks blocks of blockSize bytes
// through CreateFiles and returns it.
func (nn *NameNode) CreateFile(name string, numBlocks int, blockSize int64, now float64) (*File, error) {
	files, err := nn.CreateFiles([]FileSpec{{Name: name, Blocks: numBlocks}}, blockSize, now)
	if err != nil {
		return nil, err
	}
	return files[0], nil
}

// NodeBlocks returns a copy of the blocks stored on node (any kind),
// sorted by ID.
func (nn *NameNode) NodeBlocks(node topology.NodeID) []BlockID {
	return append(make([]BlockID, 0, len(nn.perNode[node])), nn.perNode[node]...)
}

// Locations returns the nodes currently holding replicas of b, sorted by
// node ID.
func (nn *NameNode) Locations(b BlockID) []topology.NodeID {
	locs := nn.locs(b)
	out := make([]topology.NodeID, len(locs))
	for i, r := range locs {
		out[i] = r.node
	}
	return out
}

// MovesNeeded reports whether any live node deviates from the mean
// utilization by more than the threshold.
func (b *Balancer) MovesNeeded() bool {
	bytes := b.nodeBytes()
	mean := meanBytes(bytes, b.nn.failed)
	if mean == 0 {
		return false
	}
	for n, v := range bytes {
		if !b.nn.failed[topology.NodeID(n)] && deviation(v, mean) > b.Threshold {
			return true
		}
	}
	return false
}

// PrimaryBytesOn reports bytes of pinned replicas on node.
func (nn *NameNode) PrimaryBytesOn(node topology.NodeID) int64 { return nn.primaryBytes[node] }

// FailedNodes reports how many nodes have been failed.
func (nn *NameNode) FailedNodes() int { return len(nn.failed) }

// CorruptReplicas reports how many latent corrupt replicas exist.
func (nn *NameNode) CorruptReplicas() int { return nn.corrupt }

// WarmingNodes reports how many data nodes have not yet delivered their
// post-recovery block report.
func (nn *NameNode) WarmingNodes() int { return len(nn.warming) }
