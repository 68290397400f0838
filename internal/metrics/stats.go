package metrics

import "math"

// Welford accumulates scalar samples with Welford's online algorithm and
// reports streaming statistics: mean, sample standard deviation, and the
// 95% confidence-interval half-width of the mean (Student's t). The sweep
// engine reduces replicate runs through it, and the scale experiments feed
// it per-event samples (join delays across thousands of mobile nodes);
// unlike Histogram it keeps no samples, so it is O(1) in memory and
// numerically stable at any sample count. For order statistics over a
// stream, pair it with a Reservoir.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add accumulates one sample.
func (s *Welford) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds another accumulator into s (Chan et al. parallel update).
func (s *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := float64(s.n + o.n)
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/n
	s.mean += d * float64(o.n) / n
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the sample count.
func (s *Welford) N() int { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Welford) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 when empty).
func (s *Welford) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Welford) Max() float64 { return s.max }

// Variance returns the sample (n−1) variance; 0 when fewer than two
// samples exist.
func (s *Welford) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Welford) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean.
// With fewer than two samples the interval is undefined and reported as
// 0-width.
func (s *Welford) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCrit95(s.n-1) * s.Stddev() / math.Sqrt(float64(s.n))
}

// tCrit95 is the two-sided 95% Student's t critical value for df degrees
// of freedom (the normal 1.96 beyond the table).
func tCrit95(df int) float64 {
	table := [...]float64{
		1:  12.706,
		2:  4.303,
		3:  3.182,
		4:  2.776,
		5:  2.571,
		6:  2.447,
		7:  2.365,
		8:  2.306,
		9:  2.262,
		10: 2.228,
		11: 2.201,
		12: 2.179,
		13: 2.160,
		14: 2.145,
		15: 2.131,
		16: 2.120,
		17: 2.110,
		18: 2.101,
		19: 2.093,
		20: 2.086,
		21: 2.080,
		22: 2.074,
		23: 2.069,
		24: 2.064,
		25: 2.060,
		26: 2.056,
		27: 2.052,
		28: 2.048,
		29: 2.045,
		30: 2.042,
	}
	if df < 1 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}
