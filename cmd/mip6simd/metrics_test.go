package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// The daemon serves the shared live surface: /metrics totals the cells of
// every run, and pprof answers.
func TestMetricsAndPprof(t *testing.T) {
	_, ts := newTestServer(t, "")
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	if m := get("/metrics"); !strings.Contains(m, "mip6sim_cells_completed_total 0\n") {
		t.Fatalf("fresh daemon /metrics:\n%s", m)
	}
	resp, body := postJSON(t, ts.URL+"/runs", map[string]any{"experiment": "zz-fail-cell"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if r := waitRun(t, ts.URL, "r1"); r.Cells != 2 {
		t.Fatalf("run cells = %d, want 2", r.Cells)
	}
	m := get("/metrics")
	for _, want := range []string{
		"mip6sim_cells_completed_total 2\n",
		`mip6sim_experiment_info{experiment="zz-fail-cell"} 1` + "\n",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, m)
		}
	}
	get("/debug/pprof/")
}
