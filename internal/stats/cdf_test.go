package stats

import (
	"testing"
)

func TestIntCounter(t *testing.T) {
	var c IntCounter
	c.Add(3)
	c.Add(3)
	c.Add(0)
	c.Add(-1) // clamped to 0
	if c.Count(3) != 2 || c.Count(0) != 2 {
		t.Fatalf("counts wrong: %d %d", c.Count(3), c.Count(0))
	}
	if c.Max() != 3 {
		t.Fatalf("max %d", c.Max())
	}
	if c.Fraction(3) != 0.5 {
		t.Fatalf("fraction %v", c.Fraction(3))
	}
	if c.Count(99) != 0 {
		t.Fatal("out-of-range count should be 0")
	}
}

func TestIntCounterEmptyFraction(t *testing.T) {
	var c IntCounter
	if c.Fraction(0) != 0 {
		t.Fatal("empty counter fraction should be 0")
	}
	if c.Max() != -1 {
		t.Fatalf("empty counter Max = %d, want -1", c.Max())
	}
}

func TestECDFPointsEdgeCases(t *testing.T) {
	if pts := NewECDF(nil).Points(10); pts != nil {
		t.Fatal("empty ECDF should yield nil points")
	}
	if pts := NewECDF([]float64{1, 2}).Points(1); pts != nil {
		t.Fatal("n<2 should yield nil points")
	}
}

func TestSummaryStringFormat(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if out := s.String(); len(out) == 0 {
		t.Fatal("empty summary string")
	}
}
