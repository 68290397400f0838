package metrics

import "math/rand"

// Reservoir is a seeded fixed-capacity reservoir sampler (Vitter's
// algorithm R): it holds a uniform random subset of an unbounded sample
// stream in a Histogram and answers quantile queries from it, so order
// statistics over millions of events cost O(capacity) memory. The scale
// experiments use it for join/leave-delay percentiles across thousands of
// mobile nodes where a full Histogram would grow with the event count.
//
// Sampling is driven by its own seeded generator, never by the simulation
// scheduler's RNG — a Reservoir draw must not perturb the protocol
// timeline, and the retained subset must be reproducible for a fixed seed
// regardless of what else the timeline randomizes.
type Reservoir struct {
	cap  int
	n    int
	kept Histogram
	rng  *rand.Rand

	// Exact extrema and mean are tracked over the FULL stream (they are
	// O(1)), so Min/Max/Mean never suffer sampling error.
	w Welford
}

// NewReservoir creates a sampler keeping at most capacity samples,
// seeded deterministically.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{
		cap: capacity,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Add offers one sample to the reservoir.
func (r *Reservoir) Add(v float64) {
	r.w.Add(v)
	r.n++
	if r.kept.N() < r.cap {
		r.kept.Add(v)
		return
	}
	if j := r.rng.Intn(r.n); j < r.cap {
		r.kept.samples[j] = v
		r.kept.sorted = false
	}
}

// N returns the total number of samples offered (not retained).
func (r *Reservoir) N() int { return r.n }

// Retained returns how many samples the reservoir currently holds.
func (r *Reservoir) Retained() int { return r.kept.N() }

// Mean returns the exact mean of the full stream (0 when empty).
func (r *Reservoir) Mean() float64 { return r.w.Mean() }

// Min returns the exact minimum of the full stream (0 when empty).
func (r *Reservoir) Min() float64 { return r.w.Min() }

// Max returns the exact maximum of the full stream (0 when empty).
func (r *Reservoir) Max() float64 { return r.w.Max() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the retained subset;
// 0 when empty. Exact while the stream fits the capacity; an unbiased
// estimate beyond it.
func (r *Reservoir) Quantile(q float64) float64 { return r.kept.Quantile(q) }
