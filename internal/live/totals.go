package live

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/sim"
)

// Mount registers t at /metrics and the pprof endpoints under
// /debug/pprof/ on mux. CPU profiles carry tag=<handler tag> labels when
// the run's options set ProfileLabels.
func Mount(mux *http.ServeMux, t *Totals) {
	mux.Handle("/metrics", t)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Totals folds completed cells into run-wide counts, serves them as
// Prometheus text and writes the per-tag cost table and the -progress
// summary. It is safe for concurrent use; the zero value is ready.
type Totals struct {
	mu         sync.Mutex
	experiment string
	complete   float64 // 1 once End is called
	cells      int
	wall       time.Duration
	virtual    time.Duration // summed across cells
	lastRate   float64
	rate       metrics.Welford // per-cell events/sec
	sched      sim.RunStats    // merged across cells (exp.MergeRunStats)
}

// Begin names the experiment now running (mip6sim_experiment_info).
func (t *Totals) Begin(experiment string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.experiment = experiment
}

// End marks every requested experiment finished (mip6sim_run_complete).
func (t *Totals) End() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.complete = 1
}

// Add folds one completed cell.
func (t *Totals) Add(cs exp.CellStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	t.wall += cs.Wall
	t.virtual += time.Duration(cs.Sched.Virtual)
	t.lastRate = cs.EventsPerSec()
	t.rate.Add(t.lastRate)
	t.sched = exp.MergeRunStats(t.sched, cs.Sched)
}

// ServeHTTP writes Prometheus text exposition format 0.0.4.
func (t *Totals) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	metric := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	t.mu.Lock()
	metric("mip6sim_cells_completed_total", "Timeline cells completed.", "counter", float64(t.cells))
	metric("mip6sim_events_dispatched_total", "Simulation events dispatched across all cells.", "counter", float64(t.sched.Dispatched))
	metric("mip6sim_cell_wall_seconds_total", "Wall-clock seconds spent running cells.", "counter", t.wall.Seconds())
	metric("mip6sim_virtual_seconds_total", "Virtual (simulated) seconds completed across all cells.", "counter", t.virtual.Seconds())
	metric("mip6sim_queue_high_water", "Highest event-queue length observed in any cell.", "gauge", float64(t.sched.QueueHighWater))
	metric("mip6sim_cell_events_per_second", "Dispatch rate of the most recently completed cell.", "gauge", t.lastRate)
	metric("mip6sim_run_complete", "1 once every requested experiment has finished.", "gauge", t.complete)
	fmt.Fprintf(&b, "# HELP mip6sim_experiment_info Currently running experiment.\n# TYPE mip6sim_experiment_info gauge\nmip6sim_experiment_info{experiment=%q} 1\n", t.experiment)
	if len(t.sched.Tags) > 0 {
		tags := append([]sim.TagStat(nil), t.sched.Tags...)
		sort.Slice(tags, func(i, j int) bool { return tags[i].Tag < tags[j].Tag })
		fmt.Fprint(&b, "# HELP mip6sim_tag_events_total Events dispatched per scheduler handler tag.\n# TYPE mip6sim_tag_events_total counter\n")
		for _, ts := range tags {
			fmt.Fprintf(&b, "mip6sim_tag_events_total{tag=%q} %d\n", tagName(ts.Tag), ts.Events)
		}
		fmt.Fprint(&b, "# HELP mip6sim_tag_wall_seconds_total Handler wall-clock seconds per scheduler tag.\n# TYPE mip6sim_tag_wall_seconds_total counter\n")
		for _, ts := range tags {
			fmt.Fprintf(&b, "mip6sim_tag_wall_seconds_total{tag=%q} %g\n", tagName(ts.Tag), ts.Wall.Seconds())
		}
	}
	t.mu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metric("go_goroutines", "Number of goroutines.", "gauge", float64(runtime.NumGoroutine()))
	metric("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge", float64(ms.HeapAlloc))
	metric("go_memstats_total_alloc_bytes", "Cumulative bytes allocated.", "counter", float64(ms.TotalAlloc))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// WriteTable writes the per-tag cost table ("sim top"): events, handler
// wall time, wall per event and share of all handler time for each
// scheduler handler tag, hottest first. It is the text sibling of the
// /metrics tag series and of a tag-labeled pprof profile.
func (t *Totals) WriteTable(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.sched
	fmt.Fprintf(w, "sim top: %d timeline cells, %d events, wall %v",
		t.cells, agg.Dispatched, t.wall.Round(time.Millisecond))
	if t.wall > 0 {
		fmt.Fprintf(w, " (%.0f ev/s overall)", float64(agg.Dispatched)/t.wall.Seconds())
	}
	fmt.Fprintf(w, "\n         queue high-water %d, longest timeline %v, handler wall %v\n",
		agg.QueueHighWater, time.Duration(agg.Virtual), agg.Wall.Round(time.Microsecond))
	if len(agg.Tags) == 0 {
		fmt.Fprintln(w, "         (no per-tag timing: run was not instrumented)")
		return
	}
	tags := append([]sim.TagStat(nil), agg.Tags...)
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].Wall != tags[j].Wall {
			return tags[i].Wall > tags[j].Wall
		}
		return tags[i].Tag < tags[j].Tag
	})
	fmt.Fprintf(w, "%-12s %12s %14s %12s %7s\n", "TAG", "EVENTS", "WALL", "WALL/EVENT", "%WALL")
	for _, ts := range tags {
		var per time.Duration
		if ts.Events > 0 {
			per = ts.Wall / time.Duration(ts.Events)
		}
		share := 0.0
		if agg.Wall > 0 {
			share = 100 * float64(ts.Wall) / float64(agg.Wall)
		}
		fmt.Fprintf(w, "%-12s %12d %14v %12v %6.1f%%\n",
			tagName(ts.Tag), ts.Events, ts.Wall.Round(time.Microsecond), per, share)
	}
}

// WriteSummary writes the line -progress ends with, or nothing when no
// cell completed.
func (t *Totals) WriteSummary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cells > 0 {
		fmt.Fprintf(w, "ran %d timelines: %d events, wall %v; ev/s min %.0f mean %.0f max %.0f\n",
			t.cells, t.sched.Dispatched, t.wall.Round(time.Millisecond),
			t.rate.Min(), t.rate.Mean(), t.rate.Max())
	}
}

func tagName(tag string) string {
	if tag == "" {
		return "untagged"
	}
	return tag
}
