package scheduler

import (
	"dare/internal/dfs"
	"dare/internal/mapreduce"
)

// Skips reports a job's current delay-scheduling skip count.
func (s *Fair) Skips(j *mapreduce.Job) int { return s.skips[j] }

// createFile creates one file of blocks blocks of blockSize bytes on nn at time 0
// through CreateFiles.
func createFile(nn *dfs.NameNode, name string, blocks int, blockSize int64) (*dfs.File, error) {
	files, err := nn.CreateFiles([]dfs.FileSpec{{Name: name, Blocks: blocks}}, blockSize, 0)
	if err != nil {
		return nil, err
	}
	return files[0], nil
}
