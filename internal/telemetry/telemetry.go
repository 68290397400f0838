// Package telemetry is the time-series companion to internal/obs: where a
// Recorder captures discrete events (a state entered, a message sent), a
// telemetry Registry samples continuous quantities — queue depth, (S,G)
// table size, per-link byte counts, HA tunnel load — at a fixed virtual-time
// cadence and accumulates them as columnar rows.
//
// The contract mirrors the Recorder's:
//
//   - Opt-in and nil-off. Every Registry method and every metric handle
//     (Counter, Gauge, Histogram) is nil-receiver-safe, and the nil path
//     does no work and allocates nothing, so instrumentation can stay in
//     hot paths unconditionally.
//   - One Registry belongs to one virtual timeline; it is not safe for
//     concurrent use. Replicated sweeps attach one Registry per timeline.
//   - Deterministic. The timeline's driver calls Sample at a fixed
//     virtual-time cadence (the scenario builder uses sim.Kernel barriers,
//     where every region clock agrees), metric columns appear in
//     registration order, and values derive only from virtual time and
//     the timeline's own seeded randomness — so the exported series is
//     byte-identical for a fixed seed at any worker count.
//
// Metrics come in three kinds. A Counter is push-based and monotonic
// (Add/Inc). A Gauge carries a level: either pushed with Set or pulled by a
// probe func at each sample tick. A Histogram accumulates observations into
// fixed buckets declared at registration, exported as cumulative
// per-bound counts plus count and sum (the Prometheus convention).
// Registration freezes at Start; the column set never changes mid-run.
package telemetry

import (
	"fmt"
	"sort"
	"time"

	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "?"
	}
}

// metric is one registered series. Counters and gauges hold their current
// level in value; histograms hold per-bucket counts (counts[i] observes
// v <= bounds[i], with one overflow bucket at the end) plus sum.
type metric struct {
	name   string
	kind   Kind
	value  float64
	probe  func() float64
	bounds []float64
	counts []uint64
	sum    float64
}

// Row is one sample tick: the virtual time it fired and one value per
// column, in Columns() order.
type Row struct {
	At sim.Time
	V  []float64
}

// Registry holds the metric set and the sampled rows for one timeline. The
// zero value is not usable; create one with NewRegistry. A nil *Registry is
// a valid "telemetry off" value: registrations return nil handles and every
// method no-ops.
type Registry struct {
	metrics  []*metric
	byName   map[string]*metric
	samplers []func()

	cols      []string
	colMirror []bool // scalar columns mirrored to obs (not histogram expansions)
	rows      []Row

	every   time.Duration
	sched   *sim.Scheduler
	started bool

	mirror     *obs.Recorder
	mirrorNode string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) register(name string, kind Kind) *metric {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if r.started {
		panic(fmt.Sprintf("telemetry: metric %q registered after Start", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	m := &metric{name: name, kind: kind}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers a monotonic push-based series and returns its handle.
// Nil-safe: a nil registry returns a nil handle, whose Add/Inc are free
// no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.register(name, KindCounter)}
}

// Gauge registers a level series. If probe is non-nil it is called at each
// sample tick to pull the current value; otherwise the value is pushed with
// Set. Probes run in registration order within the tick, before the row is
// assembled. Nil-safe.
func (r *Registry) Gauge(name string, probe func() float64) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, KindGauge)
	m.probe = probe
	return &Gauge{m: m}
}

// Histogram registers a fixed-bucket distribution series. bounds are the
// inclusive upper bounds, which must be strictly ascending; observations
// above the last bound land in an implicit overflow bucket visible in the
// _count column. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
	}
	m := r.register(name, KindHistogram)
	m.bounds = append([]float64(nil), bounds...)
	m.counts = make([]uint64, len(bounds)+1)
	return &Histogram{m: m}
}

// OnSample registers fn to run at the start of every sample tick, before
// gauge probes and row assembly. Samplers that derive several pushed
// metrics from one shared snapshot (e.g. walking all routers once) register
// here. Nil-safe.
func (r *Registry) OnSample(fn func()) {
	if r == nil {
		return
	}
	if r.started {
		panic("telemetry: OnSample after Start")
	}
	r.samplers = append(r.samplers, fn)
}

// Mirror also emits every scalar sample (counters and gauges, not
// histogram expansions) as a CatCounter event on rec under the given node
// name, so the existing Perfetto export grows counter tracks alongside the
// state timelines. Nil-safe; a nil recorder disables mirroring.
func (r *Registry) Mirror(rec *obs.Recorder, node string) {
	if r == nil {
		return
	}
	if node == "" {
		node = "telemetry"
	}
	r.mirror = rec
	r.mirrorNode = node
}

// Start freezes the column set, records s as the clock that stamps rows
// and every as the sampling period the exports report. It schedules
// nothing: the caller invokes Sample once per period (the scenario
// builder registers it as a kernel periodic hook). Start may be called
// once per registry. Nil-safe.
func (r *Registry) Start(s *sim.Scheduler, every time.Duration) {
	if r == nil {
		return
	}
	if r.started {
		panic("telemetry: Start called twice")
	}
	if every <= 0 {
		panic("telemetry: Start with non-positive period")
	}
	r.freeze()
	r.every = every
	r.sched = s
}

// Started reports whether Start has been called (the scenario builder uses
// it to attach a shared registry to only the first network a cell builds).
// Nil-safe.
func (r *Registry) Started() bool { return r != nil && r.started }

// freeze computes the column set from the registered metrics.
func (r *Registry) freeze() {
	r.started = true
	for _, m := range r.metrics {
		switch m.kind {
		case KindHistogram:
			for _, b := range m.bounds {
				r.cols = append(r.cols, fmt.Sprintf("%s_le_%g", m.name, b))
				r.colMirror = append(r.colMirror, false)
			}
			r.cols = append(r.cols, m.name+"_count", m.name+"_sum")
			r.colMirror = append(r.colMirror, false, false)
		default:
			r.cols = append(r.cols, m.name)
			r.colMirror = append(r.colMirror, true)
		}
	}
}

// Sample takes one snapshot now: samplers run, gauge probes pull, and one
// Row is appended (and mirrored, if a recorder is attached). The driver
// calls it once per period, and may call it again for a final end-of-run
// snapshot. Nil-safe.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	if !r.started {
		r.freeze()
	}
	for _, fn := range r.samplers {
		fn()
	}
	var now sim.Time
	if r.sched != nil {
		now = r.sched.Now()
	}
	v := make([]float64, 0, len(r.cols))
	for _, m := range r.metrics {
		switch m.kind {
		case KindHistogram:
			var cum uint64
			for _, c := range m.counts[:len(m.bounds)] {
				cum += c
				v = append(v, float64(cum))
			}
			v = append(v, float64(cum+m.counts[len(m.bounds)]), m.sum)
		default:
			if m.probe != nil {
				m.value = m.probe()
			}
			v = append(v, m.value)
		}
	}
	r.rows = append(r.rows, Row{At: now, V: v})
	if r.mirror != nil {
		for i, val := range v {
			if r.colMirror[i] {
				r.mirror.Counter(r.mirrorNode, r.cols[i], val)
			}
		}
	}
}

// Every returns the sampling period (zero before Start). Nil-safe.
func (r *Registry) Every() time.Duration {
	if r == nil {
		return 0
	}
	return r.every
}

// Columns returns the flattened column names in registration order
// (histograms expand to per-bound cumulative counts plus _count and _sum).
// The slice is the registry's backing store; callers must not mutate it.
// Nil-safe.
func (r *Registry) Columns() []string {
	if r == nil {
		return nil
	}
	if !r.started {
		r.freeze()
	}
	return r.cols
}

// Rows returns the sampled rows in tick order. The slice is the registry's
// backing store; callers must not mutate it. Nil-safe.
func (r *Registry) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// Counter is a monotonic push-based metric handle. A nil *Counter (from a
// nil registry) is a free no-op — keep Add/Inc calls unconditional on hot
// paths.
type Counter struct{ m *metric }

// Add increases the counter by v. Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.m.value += v
}

// Inc increases the counter by one. Nil-safe.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.m.value++
}

// Value returns the current total. Nil-safe.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.m.value
}

// Gauge is a level metric handle. A nil *Gauge is a free no-op.
type Gauge struct{ m *metric }

// Set records the current level. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.m.value = v
}

// Value returns the last set (or probed) level. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.m.value
}

// Histogram is a fixed-bucket distribution handle. A nil *Histogram is a
// free no-op.
type Histogram struct{ m *metric }

// Observe adds one observation. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	m := h.m
	// Linear scan: bucket counts are small and fixed, and the common case
	// (queue depths, delays) lands in the first few buckets.
	i := 0
	for i < len(m.bounds) && v > m.bounds[i] {
		i++
	}
	m.counts[i]++
	m.sum += v
}
