package exp

import (
	"fmt"
	"runtime/debug"
	"time"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// SweepSpec describes a replicated parameter sweep: one timeline per
// (point, replicate) pair. The engine owns seeding and fan-out; the spec
// owns the physics.
type SweepSpec struct {
	// Points labels each parameter point (the table row labels).
	Points []string
	// Columns names the measured values, in display order.
	Columns []string
	// Run executes one timeline for point pt. opt is the base options
	// with the per-replicate seed already derived; the body must derive
	// everything else from (opt, pt) so replicates are independent and
	// the sweep is deterministic under any worker count. It returns the
	// measured values by column plus an optional typed raw result.
	Run func(opt scenario.Options, pt int) (map[string]float64, any)
}

// PointStats is one sweep point after replicate reduction.
type PointStats struct {
	Label string
	// Cols holds the replicate statistics per measured column, reduced
	// over the successful replicates only.
	Cols map[string]*metrics.Welford
	// Raw holds each replicate's typed result in replicate order
	// (whatever SweepSpec.Run returned; may be nil — always nil for a
	// failed replicate).
	Raw []any
	// Errs holds each replicate's failure in replicate order ("" for
	// successful replicates): a panicking cell or one that omitted a
	// declared column fails alone, it does not kill the sweep.
	Errs []string
}

// Mean returns the replicate mean of one column.
func (p PointStats) Mean(col string) float64 { return p.Cols[col].Mean() }

// Failed counts the point's failed replicates.
func (p PointStats) Failed() int {
	n := 0
	for _, e := range p.Errs {
		if e != "" {
			n++
		}
	}
	return n
}

// DeriveSeed maps (master seed, replicate) to the timeline seed.
// Replicate 0 runs the master seed itself — so a single-replicate sweep
// reproduces exactly the run a bespoke one-shot harness would have done —
// and further replicates take statistically independent seeds via a
// splitmix64 chain. All points share the replicate's seed: within one
// replicate only the swept parameter varies, which is what isolates its
// effect.
func DeriveSeed(master int64, replicate int) int64 {
	if replicate == 0 {
		return master
	}
	x := splitmix64(uint64(master))
	x = splitmix64(x + uint64(replicate))
	s := int64(x & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sweep fans Points × Replicates timelines across the context's workers
// and reduces the replicates of each point into Stats. The fan-out runs
// every timeline independently (replicas share nothing but the spec);
// results are deterministic for a given master seed regardless of worker
// count.
func Sweep(ctx Context, spec SweepSpec) []PointStats {
	reps := ctx.replicates()
	npts := len(spec.Points)
	type cell struct {
		vals map[string]float64
		raw  any
		err  string
	}
	cells := make([]cell, npts*reps)
	sim.RunParallel(len(cells), ctx.Workers, func(i int) {
		pt, rep := i/reps, i%reps
		opt := ctx.Opt
		opt.Seed = DeriveSeed(ctx.Opt.Seed, rep)
		var scheds []*sim.Scheduler
		ctx.prepareCell(&opt, pt, rep, &scheds)
		var start time.Time
		if ctx.Progress != nil {
			start = time.Now()
		}
		var vals map[string]float64
		var raw any
		cellErr := contain(func() { vals, raw = spec.Run(opt, pt) })
		if cellErr == "" {
			// A cell that omits a declared column is a broken measurement,
			// not a broken sweep: fail the cell, keep the others.
			for _, col := range spec.Columns {
				if _, ok := vals[col]; !ok {
					cellErr = fmt.Sprintf("exp: sweep point %q replicate %d missing column %q",
						spec.Points[pt], rep, col)
					break
				}
			}
		}
		if cellErr != "" {
			vals, raw = nil, nil
		}
		ctx.reportCell(pt, rep, spec.Points[pt], time.Since(start), scheds, vals, cellErr)
		cells[i] = cell{vals: vals, raw: raw, err: cellErr}
	})

	out := make([]PointStats, npts)
	for pt := 0; pt < npts; pt++ {
		ps := PointStats{
			Label: spec.Points[pt],
			Cols:  make(map[string]*metrics.Welford, len(spec.Columns)),
			Raw:   make([]any, reps),
			Errs:  make([]string, reps),
		}
		for _, c := range spec.Columns {
			ps.Cols[c] = &metrics.Welford{}
		}
		for rep := 0; rep < reps; rep++ {
			c := cells[pt*reps+rep]
			ps.Raw[rep] = c.raw
			ps.Errs[rep] = c.err
			if c.err != "" {
				continue
			}
			for _, col := range spec.Columns {
				ps.Cols[col].Add(c.vals[col])
			}
		}
		out[pt] = ps
	}
	return out
}

// contain runs one timeline body, converting a panic into the cell's
// error string (with a stack trimmed to its first lines) so one bad
// cell — a scripted cross-region move, a protocol invariant trip —
// fails alone instead of killing a sweep that may be hours in, or the
// long-running mip6simd process hosting it.
func contain(fn func()) (err string) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > 4096 {
				stack = stack[:4096]
			}
			err = fmt.Sprintf("panic: %v\n%s", r, stack)
		}
	}()
	fn()
	return ""
}

// SweepResult renders replicate statistics as a Result: per measured
// column a mean column plus a "±95" half-width column (0-width when only
// one replicate ran), with the raw statistics attached for JSON emission
// and programmatic consumers.
func SweepResult(title string, columns []string, pts []PointStats) Result {
	disp := make([]string, 0, 2*len(columns))
	for _, c := range columns {
		disp = append(disp, c, c+"±95")
	}
	rows := make([]metrics.Row, 0, len(pts))
	for _, p := range pts {
		vals := make(map[string]float64, 2*len(columns))
		for _, c := range columns {
			vals[c] = p.Cols[c].Mean()
			vals[c+"±95"] = p.Cols[c].CI95()
		}
		rows = append(rows, metrics.Row{Label: p.Label, Values: vals})
	}
	return Result{
		Title:        title,
		Columns:      disp,
		Rows:         rows,
		StatsColumns: columns,
		Stats:        pts,
	}
}
