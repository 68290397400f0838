package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// start starts r on s and drives Sample from a jitter-free ticker under
// the "telemetry" tag, one sample per period, as a timeline's driver does.
func start(r *Registry, s *sim.Scheduler, every time.Duration) {
	r.Start(s, every)
	prev := s.PushTag("telemetry")
	sim.NewTicker(s, every, 0, r.Sample)
	s.PopTag(prev)
}

func TestColumnsAndRows(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewRegistry()
	c := r.Counter("pkts")
	g := r.Gauge("depth", nil)
	h := r.Histogram("lat", []float64{1, 10, 100})
	start(r, s, time.Second)

	want := []string{"pkts", "depth", "lat_le_1", "lat_le_10", "lat_le_100", "lat_count", "lat_sum"}
	got := r.Columns()
	if len(got) != len(want) {
		t.Fatalf("columns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("column %d = %q, want %q", i, got[i], want[i])
		}
	}

	c.Add(3)
	g.Set(7)
	h.Observe(0.5) // le_1
	h.Observe(5)   // le_10
	h.Observe(50)  // le_100
	h.Observe(500) // overflow
	s.RunFor(1 * time.Second)

	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row := rows[0]
	if row.At != sim.Time(time.Second) {
		t.Errorf("row at %v, want 1s", row.At)
	}
	wantV := []float64{3, 7, 1, 2, 3, 4, 555.5}
	for i, v := range wantV {
		if row.V[i] != v {
			t.Errorf("row[%d] (%s) = %g, want %g", i, got[i], row.V[i], v)
		}
	}
}

func TestGaugeProbePulledEachTick(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewRegistry()
	n := 0.0
	r.Gauge("n", func() float64 { n++; return n })
	start(r, s, time.Second)
	s.RunFor(3 * time.Second)
	rows := r.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, row := range rows {
		if row.V[0] != float64(i+1) {
			t.Errorf("tick %d probe value = %g, want %d", i, row.V[0], i+1)
		}
	}
}

func TestOnSampleRunsBeforeProbes(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewRegistry()
	g := r.Gauge("fed", nil)
	fed := 0.0
	r.OnSample(func() { fed += 10; g.Set(fed) })
	start(r, s, time.Second)
	s.RunFor(2 * time.Second)
	rows := r.Rows()
	if len(rows) != 2 || rows[0].V[0] != 10 || rows[1].V[0] != 20 {
		t.Fatalf("sampler-fed gauge rows = %+v, want [10 20]", rows)
	}
}

func TestSamplingRunsUnderTelemetryTag(t *testing.T) {
	s := sim.NewScheduler(1)
	s.Instrument()
	r := NewRegistry()
	r.Gauge("x", func() float64 { return 1 })
	start(r, s, time.Second)
	s.RunFor(5 * time.Second)
	var found *sim.TagStat
	for _, ts := range s.RunStats().Tags {
		if ts.Tag == "telemetry" {
			found = &ts
			break
		}
	}
	if found == nil {
		t.Fatal("no \"telemetry\" tag in RunStats")
	}
	if found.Events != 5 {
		t.Errorf("telemetry tag events = %d, want 5 (tick reschedules must inherit the tag)", found.Events)
	}
}

func TestSamplingDrawsNoRandomness(t *testing.T) {
	// Telemetry must not perturb the timeline's seeded randomness: a run
	// with sampling on consumes exactly the same RNG stream as one with
	// sampling off.
	draw := func(withTelemetry bool) int64 {
		s := sim.NewScheduler(42)
		if withTelemetry {
			r := NewRegistry()
			r.Gauge("x", func() float64 { return 0 })
			start(r, s, time.Second)
		}
		s.RunFor(10 * time.Second)
		return s.Rand().Int63()
	}
	if a, b := draw(false), draw(true); a != b {
		t.Errorf("RNG stream diverged with telemetry on: %d vs %d", a, b)
	}
}

func TestDeterministicExport(t *testing.T) {
	run := func() (string, string) {
		s := sim.NewScheduler(7)
		r := NewRegistry()
		c := r.Counter("events")
		h := r.Histogram("d", []float64{2, 8})
		r.Gauge("q", func() float64 { return float64(s.Pending()) })
		start(r, s, 500*time.Millisecond)
		// Deterministic background load driven by the timeline's RNG.
		var churn func()
		churn = func() {
			c.Inc()
			h.Observe(float64(s.Rand().Intn(12)))
			s.Schedule(time.Duration(s.Rand().Int63n(int64(300*time.Millisecond))), churn)
		}
		s.Schedule(0, churn)
		s.RunFor(5 * time.Second)
		var csv, jsonl bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return csv.String(), jsonl.String()
	}
	csv1, jsonl1 := run()
	csv2, jsonl2 := run()
	if csv1 != csv2 {
		t.Error("CSV export not reproducible for identical runs")
	}
	if jsonl1 != jsonl2 {
		t.Error("JSONL export not reproducible for identical runs")
	}
	if !strings.HasPrefix(jsonl1, `{"meta":"telemetry","cols":[`) {
		t.Errorf("JSONL meta line malformed: %q", firstLine(jsonl1))
	}
	if !strings.HasPrefix(csv1, "t_ns,events,d_le_2,d_le_8,d_count,d_sum,q\n") {
		t.Errorf("CSV header malformed: %q", firstLine(csv1))
	}
	if strings.Count(csv1, "\n") != 11 { // header + 10 ticks
		t.Errorf("CSV has %d lines, want 11:\n%s", strings.Count(csv1, "\n"), csv1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestMirrorEmitsScalarCounters(t *testing.T) {
	s := sim.NewScheduler(1)
	rec := obs.NewRecorder(s)
	r := NewRegistry()
	c := r.Counter("ctrl_bytes")
	r.Histogram("h", []float64{1})
	r.Mirror(rec, "telemetry")
	start(r, s, time.Second)
	c.Add(9)
	s.RunFor(2 * time.Second)

	var got []obs.Event
	for _, e := range rec.Events() {
		if e.Cat == obs.CatCounter {
			got = append(got, e)
		}
	}
	// Two ticks x one scalar column; histogram expansions must not mirror.
	if len(got) != 2 {
		t.Fatalf("mirrored %d counter events, want 2: %+v", len(got), got)
	}
	for _, e := range got {
		if e.Node != "telemetry" || e.Track != "ctrl_bytes" {
			t.Errorf("mirrored event on %s/%s, want telemetry/ctrl_bytes", e.Node, e.Track)
		}
		if e.Value != 9 {
			t.Errorf("mirrored value = %g, want 9", e.Value)
		}
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y", nil)
	h := r.Histogram("z", []float64{1})
	r.OnSample(func() { t.Error("sampler ran on nil registry") })
	r.Mirror(nil, "")
	r.Start(sim.NewScheduler(1), time.Second)
	r.Sample()
	c.Add(1)
	c.Inc()
	g.Set(2)
	h.Observe(3)
	if r.Columns() != nil || r.Rows() != nil || r.Every() != 0 || r.Started() {
		t.Error("nil registry accessors must return zero values")
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles must read zero")
	}
	if err := r.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestNilHandlesZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("nil-off handle ops allocate %.1f/op, want 0", allocs)
	}
}

func TestLiveHandlesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g", nil)
	h := r.Histogram("h", []float64{1, 10, 100})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("live handle ops allocate %.1f/op, want 0", allocs)
	}
}

func TestManualSampleWithoutStart(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(4)
	r.Sample()
	if len(r.Rows()) != 1 || r.Rows()[0].V[0] != 4 {
		t.Fatalf("manual sample rows = %+v", r.Rows())
	}
	// Registration is frozen by the first sample.
	defer func() {
		if recover() == nil {
			t.Error("registering after first Sample should panic")
		}
	}()
	r.Counter("late")
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("dup", func() {
		r := NewRegistry()
		r.Counter("a")
		r.Counter("a")
	})
	mustPanic("empty name", func() { NewRegistry().Counter("") })
	mustPanic("empty bounds", func() { NewRegistry().Histogram("h", nil) })
	mustPanic("unsorted bounds", func() { NewRegistry().Histogram("h", []float64{5, 1}) })
	mustPanic("double start", func() {
		r := NewRegistry()
		s := sim.NewScheduler(1)
		r.Start(s, time.Second)
		r.Start(s, time.Second)
	})
	mustPanic("bad period", func() { NewRegistry().Start(sim.NewScheduler(1), 0) })
}

func BenchmarkHandleOps(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var c *Counter
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
			h.Observe(float64(i & 127))
		}
	})
	b.Run("live", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("c")
		h := r.Histogram("h", []float64{1, 10, 100})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
			h.Observe(float64(i & 127))
		}
	})
}
