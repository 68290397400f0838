package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// smokeBA is a small sharded cell: it takes the kernel path of
// ba-r100-sharded at a size the race detector can run quickly.
var smokeBA = &workload{name: "ba-r40-sharded", cycle: 1, scale: &scaleCell{
	family: "ba", routers: 40, mns: 80, dwell: 20,
	approach: "local-membership", engine: "pimdm", shards: 2}}

// TestMetricsMatchBenchmarkJSON keeps the metric tables, and the workload
// list, in step with what BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var def struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []entry, got []metricDef) {
		t.Helper()
		var a, b []string
		for _, e := range declared {
			a = append(a, e.Name+" "+e.Unit)
		}
		for _, d := range got {
			b = append(b, d.name+" "+d.unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json declares %v, the benchmark has %v", what, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: BENCHMARK.json declares %v, the benchmark has %v", what, a, b)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	var names []metricDef
	for _, w := range workloads {
		names = append(names, metricDef{name: w.name})
	}
	same("workloads", def.Workloads, names)
}

// checkEmitted asserts a run emitted exactly the declared metrics, each a
// finite number.
func checkEmitted(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Fatalf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Fatalf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

func TestSmokeRuns(t *testing.T) {
	fig1, err := workloadByName("fig1-approaches")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w     *workload
		cells int
	}{{fig1, 3}, {smokeBA, 1}} {
		t.Run(tc.w.name, func(t *testing.T) {
			// The traced and the untraced cell of one seed simulate the same
			// outcome.
			for i := 0; i < tc.cells; i++ {
				p, _ := runCell(tc.w, int64(7+i), i, nil)
				c, _ := runCell(tc.w, int64(7+i), i, &tracer{})
				if p.err != "" || c.err != "" {
					t.Fatalf("cell %d failed: %q / %q", i, p.err, c.err)
				}
				if p.out.digest() != c.out.digest() {
					t.Fatalf("cell %d: traced digest %x differs from untraced %x", i, c.out.digest(), p.out.digest())
				}
			}

			res := measure(tc.w, 7, time.Hour, tc.cells)
			if !res.Correct || res.Attempted != tc.cells {
				t.Fatalf("timed run: %+v", res)
			}
			checkEmitted(t, res, endToEnd)

			res, digest := measureTraced(tc.w, 7, time.Hour, tc.cells)
			if !res.Correct || res.Attempted != 2*tc.cells || len(digest) != 16 {
				t.Fatalf("traced run: %+v, digest %q", res, digest)
			}
			checkEmitted(t, res, perLayer)
			if c := res.Metrics["sim.tag_coverage"].Value; c != 1 {
				t.Errorf("sim.tag_coverage = %v, want 1", c)
			}
			if tc.w.scale != nil && res.Metrics["sim.kernel_windows"].Value == 0 {
				t.Errorf("sharded cell ran no kernel windows")
			}
		})
	}
}

// TestCellTimePerKind pins cell_s_p10 to the mean of each kind's own 10th
// percentile, so a cheap kind cannot stand in for the others.
func TestCellTimePerKind(t *testing.T) {
	var cheap, dear []float64
	for i := 1; i <= 10; i++ {
		cheap = append(cheap, float64(i))
		dear = append(dear, float64(10*i))
	}
	if got := cellTime([][]float64{cheap, dear, nil}); got != 5.5 {
		t.Errorf("cellTime = %v, want 5.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"faster", base, scaled(0.8), "lower", "gain"},
		{"slower", base, scaled(1.2), "lower", "regression"},
		{"within bound", base, scaled(1.05), "lower", "same"},
		{"higher is better", base, scaled(0.8), "higher", "regression"},
		{"noisy parent", noisy, noisy, "lower", "unresolved"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
