package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
)

func testExperiment(name string) *Experiment {
	return &Experiment{
		Name: name,
		Desc: "test experiment",
		Params: []Param{
			{Name: "n", Desc: "count", Kind: Int, Default: 3, Check: AtLeast(0)},
			{Name: "on", Desc: "flag", Kind: Bool, Default: true},
			{Name: "rate", Desc: "rate", Kind: Float, Default: 0.5},
			{Name: "sizes", Desc: "sizes", Kind: IntList, Default: []int{1, 2}},
			{Name: "losses", Desc: "losses", Kind: FloatList, Default: []float64{0}},
		},
		Run: func(ctx Context, p Params) Result {
			return Result{
				Title:   "t",
				Columns: []string{"v"},
				Rows:    []metrics.Row{{Label: "r", Values: map[string]float64{"v": float64(p.Int("n"))}}},
			}
		},
	}
}

func TestRegistryRegisterGetRun(t *testing.T) {
	e := testExperiment("test-reg")
	Register(e)
	got, ok := Get("test-reg")
	if !ok || got != e {
		t.Fatal("registered experiment not retrievable")
	}
	found := false
	for _, n := range Names() {
		if n == "test-reg" {
			found = true
		}
	}
	if !found {
		t.Error("Names() misses registration")
	}
	res, err := Run("test-reg", Context{Opt: scenario.DefaultOptions()}, Params{"n": 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Values["v"] != 7 {
		t.Errorf("param did not reach Run: %v", res.Rows[0].Values)
	}
	if _, err := Run("no-such-experiment", Context{}, nil); err == nil {
		t.Error("unknown experiment did not error")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(&Experiment{Run: func(Context, Params) Result { return Result{} }}) })
	mustPanic("nil run", func() { Register(&Experiment{Name: "test-nil-run"}) })
	Register(testExperiment("test-dup"))
	mustPanic("duplicate", func() { Register(testExperiment("test-dup")) })
}

func TestResolveParams(t *testing.T) {
	e := testExperiment("test-params")
	// Defaults fill in.
	p, err := e.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Int("n") != 3 || !p.Bool("on") || p.Float("rate") != 0.5 {
		t.Errorf("defaults not applied: %v", p)
	}
	if !reflect.DeepEqual(p.Ints("sizes"), []int{1, 2}) {
		t.Errorf("list default: %v", p.Ints("sizes"))
	}
	// Overrides and coercions.
	p, err = e.ResolveParams(Params{"rate": 2, "losses": []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Float("rate") != 2 {
		t.Errorf("int→float coercion: %v", p["rate"])
	}
	if !reflect.DeepEqual(p.Floats("losses"), []float64{1, 2}) {
		t.Errorf("[]int→[]float coercion: %v", p["losses"])
	}
	// Violations.
	if _, err := e.ResolveParams(Params{"bogus": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := e.ResolveParams(Params{"n": "seven"}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := e.ResolveParams(Params{"n": -1}); err == nil || !strings.Contains(err.Error(), `parameter "n": -1 is below 0`) {
		t.Errorf("value its check rejects: error %v", err)
	}
}

func TestDeriveSeed(t *testing.T) {
	// Replicate 0 is the master seed: single-replicate sweeps reproduce
	// one-shot runs exactly.
	if got := DeriveSeed(42, 0); got != 42 {
		t.Errorf("rep 0 seed = %d, want master 42", got)
	}
	// Further replicates: deterministic, distinct, positive.
	seen := map[int64]bool{42: true}
	for rep := 1; rep < 100; rep++ {
		s := DeriveSeed(42, rep)
		if s != DeriveSeed(42, rep) {
			t.Fatalf("rep %d not deterministic", rep)
		}
		if s <= 0 {
			t.Fatalf("rep %d seed %d not positive", rep, s)
		}
		if seen[s] {
			t.Fatalf("rep %d seed %d collides", rep, s)
		}
		seen[s] = true
	}
	// Different masters diverge.
	if DeriveSeed(1, 1) == DeriveSeed(2, 1) {
		t.Error("masters 1 and 2 share replicate-1 seed")
	}
}

// synthSpec is a deterministic pure-math sweep: value depends only on
// (seed, point), which is exactly the contract real experiment bodies
// must satisfy.
func synthSpec(points int) SweepSpec {
	labels := make([]string, points)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	return SweepSpec{
		Points:  labels,
		Columns: []string{"a", "b"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			v := float64(opt.Seed%1000) + 10*float64(pt)
			return map[string]float64{"a": v, "b": -v}, [2]any{opt.Seed, pt}
		},
	}
}

func TestSweepReducesReplicates(t *testing.T) {
	ctx := Context{Opt: scenario.DefaultOptions(), Replicates: 4, Workers: 2}
	pts := Sweep(ctx, synthSpec(3))
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Cols["a"].N() != 4 {
			t.Errorf("point %d: n = %d, want 4", i, p.Cols["a"].N())
		}
		if len(p.Raw) != 4 {
			t.Errorf("point %d: raw = %d", i, len(p.Raw))
		}
		// Replicate 0 ran the master seed.
		raw := p.Raw[0].([2]any)
		if raw[0].(int64) != ctx.Opt.Seed || raw[1].(int) != i {
			t.Errorf("point %d: raw[0] = %v", i, raw)
		}
		if p.Cols["a"].Mean() != -p.Cols["b"].Mean() {
			t.Errorf("point %d: columns inconsistent", i)
		}
	}
}

// TestSweepDeterministicAcrossWorkers is the engine-level contract behind
// the registry-wide determinism test: identical master seed must give
// identical statistics under any parallelism.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []PointStats {
		ctx := Context{Opt: scenario.DefaultOptions(), Replicates: 5, Workers: workers}
		return Sweep(ctx, synthSpec(7))
	}
	seq, par := run(1), run(8)
	for i := range seq {
		for _, c := range []string{"a", "b"} {
			if seq[i].Cols[c].Mean() != par[i].Cols[c].Mean() ||
				seq[i].Cols[c].CI95() != par[i].Cols[c].CI95() {
				t.Errorf("point %d col %s: workers=1 %v/%v vs workers=8 %v/%v",
					i, c, seq[i].Cols[c].Mean(), seq[i].Cols[c].CI95(),
					par[i].Cols[c].Mean(), par[i].Cols[c].CI95())
			}
		}
	}
}

func TestSweepResultLayout(t *testing.T) {
	ctx := Context{Opt: scenario.DefaultOptions(), Replicates: 1}
	res := SweepResult("title", []string{"a", "b"}, Sweep(ctx, synthSpec(2)))
	want := []string{"a", "a±95", "b", "b±95"}
	if !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("columns = %v, want %v", res.Columns, want)
	}
	for _, row := range res.Rows {
		// Single replicate: CI reported as 0-width.
		if row.Values["a±95"] != 0 || row.Values["b±95"] != 0 {
			t.Errorf("row %s: nonzero CI with one replicate: %v", row.Label, row.Values)
		}
	}
	if len(res.Stats) != 2 || !reflect.DeepEqual(res.StatsColumns, []string{"a", "b"}) {
		t.Errorf("stats not attached: %d pts, cols %v", len(res.Stats), res.StatsColumns)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := Context{Opt: scenario.DefaultOptions(), Replicates: 3}
	res := SweepResult("sweep title", []string{"a", "b"}, Sweep(ctx, synthSpec(2)))
	jr := ResultJSON("test-json", ctx, Params{"n": 3}, res)
	path, err := WriteJSON(dir, jr)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "test-json.json" {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != JSONSchema || back.Experiment != "test-json" {
		t.Errorf("header: %+v", back)
	}
	if back.Replicates != 3 || back.Seed != ctx.Opt.Seed {
		t.Errorf("run context lost: %+v", back)
	}
	if len(back.Rows) != 2 || back.Rows[0].Values["a"].N != 3 {
		t.Errorf("rows: %+v", back.Rows)
	}
	// Writing twice produces identical bytes (schema stability).
	if _, err := WriteJSON(dir, jr); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(path)
	if string(again) != string(data) {
		t.Error("JSON output not byte-stable")
	}

	if js := ResultJSON("test-json-nil", ctx, nil, res); js.Params == nil {
		t.Error("nil params should serialize as empty object")
	}
}
