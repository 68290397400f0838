package mip6mcast

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/telemetry"
)

// The sampled telemetry series must meet the same reproducibility bar as
// traces and tables: byte-identical for a fixed seed no matter how many
// workers drive sibling timelines. Exercised on a chaos cell and a scale
// cell under both multicast engines — the configurations where sampling
// rides along with fault injection, topology churn and engine swaps.
func TestTelemetrySeriesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs chaos and scale twice per engine")
	}
	cases := []struct {
		experiment string
		params     exp.Params
	}{
		{"chaos", nil},
		{"scale", exp.Params{"families": "fig1", "routers": []int{4}, "mns": 4, "horizon": 20}},
	}
	for _, tc := range cases {
		for _, eng := range []string{"pimdm", "hpimdm"} {
			tc, eng := tc, eng
			t.Run(tc.experiment+"/"+eng, func(t *testing.T) {
				t.Parallel()
				params := exp.Params{"engine": eng}
				for k, v := range tc.params {
					params[k] = v
				}
				run := func(workers int) map[string][]byte {
					var mu sync.Mutex
					regs := map[string]*telemetry.Registry{}
					ctx := ExpContext{
						Opt:        FastMLDOptions(10),
						Replicates: 2,
						Workers:    workers,
						OnCell: func(pt, rep int, opt *scenario.Options) {
							// Sample the first sweep point only: one chaos
							// cell and one scale cell is the contract, and
							// skipping the rest keeps the double run cheap.
							if pt != 0 {
								return
							}
							r := telemetry.NewRegistry()
							mu.Lock()
							regs[fmt.Sprintf("%d/%d", pt, rep)] = r
							mu.Unlock()
							opt.Telemetry = r
						},
					}
					if _, err := RunExperiment(tc.experiment, ctx, params); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					out := map[string][]byte{}
					for k, r := range regs {
						if len(r.Rows()) == 0 {
							t.Fatalf("workers=%d: cell %s sampled nothing", workers, k)
						}
						var csv, jsonl bytes.Buffer
						if err := r.WriteCSV(&csv); err != nil {
							t.Fatal(err)
						}
						if err := r.WriteJSONL(&jsonl); err != nil {
							t.Fatal(err)
						}
						out[k] = append(csv.Bytes(), jsonl.Bytes()...)
					}
					return out
				}

				serial, parallel := run(1), run(8)
				if len(serial) != 2 || len(parallel) != 2 {
					t.Fatalf("sampled cell counts: %d vs %d, want 2 (replicates of point 0)",
						len(serial), len(parallel))
				}
				for k, a := range serial {
					b, ok := parallel[k]
					if !ok {
						t.Fatalf("cell %s missing from parallel run", k)
					}
					if !bytes.Equal(a, b) {
						t.Errorf("cell %s: telemetry series differ between workers=1 and workers=8", k)
					}
				}
			})
		}
	}
}
