package exp

import (
	"strings"
	"testing"

	"mip6mcast/internal/scenario"
)

// A replicate that panics must fail alone: the sweep completes, the
// failed cell carries the panic in its error, and the surviving
// replicates' statistics are unaffected.
func TestSweepContainsPanickingCell(t *testing.T) {
	spec := SweepSpec{
		Points:  []string{"ok", "boom"},
		Columns: []string{"v"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			if pt == 1 && opt.Seed == DeriveSeed(1, 1) {
				panic("injected cell failure")
			}
			return map[string]float64{"v": 2}, "raw"
		},
	}
	var reported []CellStats
	ctx := Context{Opt: scenario.DefaultOptions(), Replicates: 3, Workers: 2,
		Progress: func(cs CellStats) { reported = append(reported, cs) }}
	ctx.Opt.Seed = 1

	pts := Sweep(ctx, spec)
	if got := pts[0].Failed(); got != 0 {
		t.Fatalf("healthy point reports %d failures: %v", got, pts[0].Errs)
	}
	if got := pts[1].Failed(); got != 1 {
		t.Fatalf("point with injected panic reports %d failures: %v", got, pts[1].Errs)
	}
	if pts[1].Errs[1] == "" || !strings.Contains(pts[1].Errs[1], "injected cell failure") {
		t.Fatalf("failed replicate error = %q", pts[1].Errs[1])
	}
	if !strings.Contains(pts[1].Errs[1], "contain_test.go") {
		t.Fatalf("cell error carries no stack: %q", pts[1].Errs[1])
	}
	if pts[1].Raw[1] != nil {
		t.Fatalf("failed replicate kept raw result %v", pts[1].Raw[1])
	}
	// Statistics reduce over survivors only.
	if n := pts[1].Cols["v"].N(); n != 2 {
		t.Fatalf("failed point has %d samples, want 2 survivors", n)
	}
	if pts[1].Cols["v"].Mean() != 2 {
		t.Fatalf("survivor mean = %v", pts[1].Cols["v"].Mean())
	}
	// Progress saw the failure exactly once.
	fails := 0
	for _, cs := range reported {
		if cs.Err != "" {
			fails++
			if cs.Point != 1 || cs.Replicate != 1 {
				t.Fatalf("failure reported at cell (%d,%d)", cs.Point, cs.Replicate)
			}
		}
	}
	if fails != 1 {
		t.Fatalf("progress reported %d failures, want 1", fails)
	}

	// The JSON artifact carries the error.
	jr := ResultJSON("t", ctx, nil, SweepResult("t", spec.Columns, pts))
	if len(jr.Rows[1].Errors) != 1 || !strings.Contains(jr.Rows[1].Errors[0], "injected cell failure") {
		t.Fatalf("JSON row errors = %v", jr.Rows[1].Errors)
	}
	if len(jr.Rows[0].Errors) != 0 {
		t.Fatalf("healthy JSON row has errors: %v", jr.Rows[0].Errors)
	}
}

// A cell that omits a declared column used to panic the process from the
// reduction loop; it must now fail that cell only.
func TestSweepMissingColumnFailsCell(t *testing.T) {
	spec := SweepSpec{
		Points:  []string{"p"},
		Columns: []string{"v", "w"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			return map[string]float64{"v": 1}, nil // "w" missing
		},
	}
	pts := Sweep(Context{Opt: scenario.DefaultOptions(), Replicates: 2}, spec)
	if got := pts[0].Failed(); got != 2 {
		t.Fatalf("Failed() = %d, want 2", got)
	}
	for _, e := range pts[0].Errs {
		if !strings.Contains(e, `missing column "w"`) {
			t.Fatalf("error = %q", e)
		}
	}
	if pts[0].Cols["v"].N() != 0 {
		t.Fatalf("failed cells contributed samples: n=%d", pts[0].Cols["v"].N())
	}
}
