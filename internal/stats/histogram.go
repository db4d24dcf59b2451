package stats

// IntCounter counts occurrences of small non-negative integers (hop
// counts, replica counts). It grows on demand.
type IntCounter struct {
	counts []int64
	total  int64
}

// Add records one occurrence of v (negative values are clamped to 0).
func (c *IntCounter) Add(v int) {
	if v < 0 {
		v = 0
	}
	for v >= len(c.counts) {
		c.counts = append(c.counts, 0)
	}
	c.counts[v]++
	c.total++
}

// Max reports the largest recorded value (or -1 when empty).
func (c *IntCounter) Max() int { return len(c.counts) - 1 }

// Count reports occurrences of v.
func (c *IntCounter) Count(v int) int64 {
	if v < 0 || v >= len(c.counts) {
		return 0
	}
	return c.counts[v]
}

// Fraction reports the proportion of observations equal to v.
func (c *IntCounter) Fraction(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.Count(v)) / float64(c.total)
}
