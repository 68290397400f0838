package metrics

import (
	"math"
	"testing"
)

func TestStatsEmpty(t *testing.T) {
	var s Welford
	if s.N() != 0 || s.Mean() != 0 || s.Stddev() != 0 || s.CI95() != 0 {
		t.Fatalf("zero value not neutral: %+v", s)
	}
	if s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty min/max = %v/%v, want 0/0", s.Min(), s.Max())
	}
}

func TestStatsSingleSample(t *testing.T) {
	var s Welford
	s.Add(42)
	if s.N() != 1 || s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("n=1 aggregate wrong: %+v", s)
	}
	// CI is undefined for n=1 and must be reported as 0-width.
	if s.Variance() != 0 || s.Stddev() != 0 || s.CI95() != 0 {
		t.Errorf("n=1: variance=%v stddev=%v ci=%v, want all 0",
			s.Variance(), s.Stddev(), s.CI95())
	}
}

func TestStatsConstantSeries(t *testing.T) {
	var s Welford
	for i := 0; i < 100; i++ {
		s.Add(7.25)
	}
	if s.Mean() != 7.25 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Stddev() != 0 || s.CI95() != 0 {
		t.Errorf("constant series: stddev=%v ci=%v, want 0", s.Stddev(), s.CI95())
	}
	if s.Min() != 7.25 || s.Max() != 7.25 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestStatsKnownSeries(t *testing.T) {
	var s Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sum of squared deviations is 32; sample variance 32/7.
	if got, want := s.Variance(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
	// CI95 = t(7) * s / sqrt(8).
	want := 2.365 * math.Sqrt(32.0/7) / math.Sqrt(8)
	if got := s.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ci95 = %v, want %v", got, want)
	}
}

// TestStatsWelfordStability checks the motivating property of the online
// update: a large offset plus a tiny spread. The naive sum-of-squares
// formula loses all significant digits here (mean² ≈ 1e18 swamps a
// variance of 0.25 in float64); Welford keeps it exact.
func TestStatsWelfordStability(t *testing.T) {
	var s Welford
	const offset = 1e9
	const n = 1_000_000
	for i := 0; i < n; i++ {
		s.Add(offset + float64(i%2)) // alternating offset, offset+1
	}
	if got := s.Mean(); math.Abs(got-(offset+0.5)) > 1e-6 {
		t.Errorf("mean = %v, want %v", got, offset+0.5)
	}
	// Population variance of the alternating series is 0.25; the sample
	// variance at n=1e6 is within 1e-6 of it.
	if got := s.Variance(); math.Abs(got-0.25) > 1e-4 {
		t.Errorf("variance = %v, want 0.25 (catastrophic cancellation?)", got)
	}
	if s.CI95() <= 0 {
		t.Error("ci95 should be positive for a non-constant series")
	}
}

func TestStatsMerge(t *testing.T) {
	var whole, a, b Welford
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, -3}
	for i, v := range vals {
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged n = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	// Merging into the zero value copies.
	var z Welford
	z.Merge(whole)
	if z != whole {
		t.Error("merge into zero value not a copy")
	}
	// Merging the zero value is a no-op.
	before := whole
	whole.Merge(Welford{})
	if whole != before {
		t.Error("merging empty stats changed the aggregate")
	}
}
