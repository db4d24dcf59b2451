package scheduler

import "dare/internal/mapreduce"

// Skips reports a job's current delay-scheduling skip count.
func (s *Fair) Skips(j *mapreduce.Job) int { return s.skips[j] }
