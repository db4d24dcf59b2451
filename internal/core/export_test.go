package core

import "dare/internal/dfs"

// Kind reports which algorithm this is.
func (c *ReplicaCache) Kind() PolicyKind { return c.kind }

// BudgetBytes reports the node's replication budget in bytes.
func (c *ReplicaCache) BudgetBytes() int64 { return c.budget }

// UsedBytes reports the budget bytes currently consumed.
func (c *ReplicaCache) UsedBytes() int64 { return c.used }

// Contains reports whether b is currently tracked as a dynamic replica
// (marked-for-deletion blocks are no longer tracked).
func (c *ReplicaCache) Contains(b dfs.BlockID) bool {
	_, ok := c.index[b]
	return ok
}

// Count reports a tracked block's access count; LRU entries are never
// counted.
func (c *ReplicaCache) Count(b dfs.BlockID) (int64, bool) {
	e, ok := c.index[b]
	if !ok {
		return 0, false
	}
	return e.count, true
}

// UsedBytes reports the dynamic-replica bytes tracked across all nodes.
func (m *Manager) UsedBytes() int64 {
	var total int64
	for _, p := range m.policies {
		if p != nil {
			total += p.UsedBytes()
		}
	}
	return total
}

// createFile creates one file of blocks blocks of blockSize bytes on nn at time 0
// through CreateFiles.
func createFile(nn *dfs.NameNode, name string, blocks int, blockSize int64) (*dfs.File, error) {
	files, err := nn.CreateFiles([]dfs.FileSpec{{Name: name, Blocks: blocks}}, blockSize, 0)
	if err != nil {
		return nil, err
	}
	return files[0], nil
}
