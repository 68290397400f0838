package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"mip6mcast/internal/scenario"
)

// cell is one simulated cell as measured.
type cell struct {
	wall  time.Duration // cell start to verdict
	setup time.Duration // cell start until the network is built
	alloc uint64        // bytes allocated
	out   outcome
	err   string // "" when the cell passed
}

// runCell runs cell i of w at seed. With a tracer it instruments the network
// as soon as it is built. It returns the network for post-run timing.
func runCell(w *workload, seed int64, i int, tr *tracer) (c cell, f *scenario.Network) {
	// Every cell starts from a collected heap, so no cell pays for the
	// garbage of the one before it. Collections a cell's own allocation
	// triggers (tens per scale cell) fall inside its time.
	runtime.GC()
	a0 := allocBytes()
	start := time.Now()
	out, err := contain(func() (outcome, error) {
		return w.run(seed, i, func(n *scenario.Network) {
			c.setup = time.Since(start)
			f = n
			if tr != nil {
				tr.attach(n)
			}
		})
	})
	c.wall = time.Since(start)
	c.alloc = allocBytes() - a0
	if f != nil {
		for _, s := range f.Scheds() {
			out.events += s.Processed()
		}
		out.ctrlBytes, out.dataBytes = trafficBytes(f)
	}
	c.out = out
	switch {
	case err != nil:
		c.err = err.Error()
	case len(out.violations) > 0:
		c.err = "violations: " + strings.Join(out.violations, "; ")
	}
	return c, f
}

// contain turns a panicking cell into a failed one.
func contain(fn func() (outcome, error)) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) fail(seed int64, msg string) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "mip6bench: seed %d: %s\n", seed, msg)
}

// loop runs cells back to back from seed until the time limit, or until
// maxCells when that is positive. It starts another cell only while one as
// slow as the slowest so far still fits, but always runs at least atLeast.
func loop(seed int64, limit time.Duration, atLeast, maxCells int, body func(seed int64, i int)) {
	start := time.Now()
	var slowest time.Duration
	for i := 0; maxCells <= 0 || i < maxCells; i++ {
		if i >= atLeast && time.Since(start)+slowest > limit {
			return
		}
		t := time.Now()
		body(seed+int64(i), i)
		slowest = max(slowest, time.Since(t))
	}
}

// warmUp runs w's first cycle of cells untimed, so that the heap has grown
// and caches hold the code and data of every kind of cell before timing
// starts. Timing then starts over at the same seed. It returns the time the
// rest of the run has.
func warmUp(w *workload, seed int64, limit time.Duration) time.Duration {
	start := time.Now()
	for i := 0; i < w.cycle; i++ {
		runCell(w, seed+int64(i), i, nil)
	}
	return limit - time.Since(start)
}

// measure is the untraced run: it reduces w's cells to the end_to_end
// metrics. Time the cells leave over goes to set-up-only builds, so that
// setup_s is a median over several samples even where few cells fit.
func measure(w *workload, seed int64, limit time.Duration, maxCells int) result {
	var res result
	var setups, allocs []float64
	walls := make([][]float64, w.cycle) // by kind of cell
	limit = warmUp(w, seed, limit)
	start := time.Now()
	loop(seed, limit, w.cycle, maxCells, func(seed int64, i int) {
		c, _ := runCell(w, seed, i, nil)
		res.Attempted++
		if c.err != "" {
			res.fail(seed, c.err)
		}
		walls[i%w.cycle] = append(walls[i%w.cycle], c.wall.Seconds())
		setups = append(setups, c.setup.Seconds())
		allocs = append(allocs, float64(c.alloc)/1e6)
	})
	if maxCells <= 0 {
		n := res.Attempted
		loop(seed+int64(n), limit-time.Since(start), 0, 0, func(seed int64, i int) {
			if d, ok := setupOnly(w, seed, n+i); ok {
				setups = append(setups, d.Seconds())
			} else {
				res.fail(seed, "set-up failed")
			}
		})
	}
	res.Correct = res.Failed == 0
	res.Metrics = values(endToEnd, map[string]float64{
		"cell_s_p10":        cellTime(walls),
		"setup_s":           median(setups),
		"alloc_mb_per_cell": median(allocs),
		"peak_rss_mb":       peakRSSBytes() / 1e6,
	})
	return res
}

// cellTime is cell_s_p10: for each kind of cell, the 10th percentile of its
// wall times, averaged over the kinds. On a shared virtual machine other
// tenants slow every cell by 30–60% in bursts of 0.4–2 s, and at times for
// most of a minute; the fastest tenth of the cells ran between bursts, so it
// follows the code rather than the neighbours where a median would not. It
// is taken per kind because Figure 1's kinds differ in cost, and the
// cheapest would otherwise fill the lowest tenth alone.
func cellTime(walls [][]float64) float64 {
	var sum float64
	var kinds int
	for _, ws := range walls {
		if len(ws) > 0 {
			sum += percentile(ws, 0.10)
			kinds++
		}
	}
	return ratio(sum, float64(kinds))
}

// errSetupOnly stops a cell once its network is built: the public entry
// points offer no build-only call, so the OnNetwork hook panics out of the
// cell, and the panic is contained like any failing cell's.
var errSetupOnly = errors.New("mip6bench: set-up only")

// setupOnly times cell i's set-up without running it. ok is false when the
// cell failed before its network was built.
func setupOnly(w *workload, seed int64, i int) (d time.Duration, ok bool) {
	runtime.GC()
	start := time.Now()
	contain(func() (outcome, error) {
		return w.run(seed, i, func(*scenario.Network) {
			d, ok = time.Since(start), true
			panic(errSetupOnly)
		})
	})
	return d, ok
}

// measureTraced is the traced run. Each seed runs untraced and then traced;
// the two must simulate the same outcome. The traced cells give the
// per_layer metrics, the untraced ones the tracing overhead, and the first
// cycle of traced cells the model metrics and digest.
func measureTraced(w *workload, seed int64, limit time.Duration, maxCells int) (res result, digest string) {
	var l layers
	var model []outcome
	h := fnv.New64a()
	limit = warmUp(w, seed, limit)
	loop(seed, limit, w.cycle, maxCells, func(seed int64, i int) {
		p, _ := runCell(w, seed, i, nil)
		tr := &tracer{}
		c, f := runCell(w, seed, i, tr)
		res.Attempted += 2
		for _, x := range []cell{p, c} {
			if x.err != "" {
				res.fail(seed, x.err)
			}
		}
		if p.err == "" && c.err == "" && p.out.digest() != c.out.digest() {
			res.fail(seed, "traced cell simulated a different outcome than the untraced one")
		}
		if i < w.cycle {
			model = append(model, c.out)
			fmt.Fprintf(h, "%x ", c.out.digest())
		}
		if f == nil {
			return
		}
		l.addPair(p, c, tr, f)
		if err := l.timeSetup(w, seed, f.Opt); err != nil {
			res.fail(seed, err.Error())
		}
	})
	res.Correct = res.Failed == 0
	vals := l.metrics()
	for k, v := range modelMetrics(model) {
		vals[k] = v
	}
	res.Metrics = values(perLayer, vals)
	return res, fmt.Sprintf("%016x", h.Sum64())
}

// values attaches units to measured values, in the set defs declares.
func values(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("mip6bench: no value for metric " + d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}
