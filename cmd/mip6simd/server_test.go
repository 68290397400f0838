package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mip6mcast"
	"mip6mcast/internal/checkpoint"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/live"
	"mip6mcast/internal/scenario"
)

// Test-only registry entries: a sweep with one deliberately panicking
// cell (the acceptance criterion's failing cell), and an experiment whose
// own Run panics (the shape of a typed-Raw assertion on a failed
// replicate). Neither builds a network, so they are instant.
var registerOnce sync.Once

func registerTestExperiments() {
	registerOnce.Do(func() {
		exp.Register(&exp.Experiment{
			Name: "zz-fail-cell", Desc: "test: sweep with one panicking cell", Sweep: true,
			Run: func(ctx exp.Context, p exp.Params) exp.Result {
				spec := exp.SweepSpec{
					Points:  []string{"ok", "boom"},
					Columns: []string{"v"},
					Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
						if pt == 1 {
							panic("deliberate cell failure")
						}
						return map[string]float64{"v": 1}, nil
					},
				}
				return exp.SweepResult("test sweep", spec.Columns, exp.Sweep(ctx, spec))
			},
		})
		exp.Register(&exp.Experiment{
			Name: "zz-panic-run", Desc: "test: Run itself panics", Sweep: true,
			Run: func(ctx exp.Context, p exp.Params) exp.Result {
				var raw any
				_ = raw.(int) // the pt.Raw[0].(T) failure shape
				return exp.Result{}
			},
		})
	})
}

func newTestServer(t *testing.T, cacheDir string) (*server, *httptest.Server) {
	t.Helper()
	registerTestExperiments()
	s, err := newServer(cacheDir, 2)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// waitRun polls a run until it leaves "running".
func waitRun(t *testing.T, base, id string) run {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var r run
		if code := getJSON(t, base+"/runs/"+id, &r); code != http.StatusOK {
			t.Fatalf("GET run %s: status %d", id, code)
		}
		if r.Status != "running" {
			return r
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return run{}
}

func TestHealthzAndExperiments(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	var infos []struct {
		Name   string `json:"name"`
		Params []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"params"`
	}
	if code := getJSON(t, ts.URL+"/experiments", &infos); code != http.StatusOK {
		t.Fatalf("experiments: status %d", code)
	}
	found := false
	for _, e := range infos {
		if e.Name == "s44" {
			found = true
			if len(e.Params) == 0 {
				t.Fatal("s44 listed without its parameter schema")
			}
		}
	}
	if !found {
		t.Fatal("registry listing is missing s44")
	}
}

func TestBadSpecsRejected(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, body := postJSON(t, ts.URL+"/runs", map[string]any{"experiment": "no-such"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown experiment") {
		t.Fatalf("unknown experiment: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/runs", map[string]any{
		"experiment": "s44", "params": map[string]any{"tquery": "soon"},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "tquery") {
		t.Fatalf("bad param kind: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/runs", map[string]any{
		"experiment": "s44", "params": map[string]any{"ghost": 1},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "ghost") {
		t.Fatalf("unknown param: %d %s", resp.StatusCode, body)
	}
}

// The full lifecycle on a real registry experiment: run, result, progress
// stream, then a cache hit on resubmission — with on-disk persistence
// surviving a daemon restart.
func TestRunResultCacheAndProgress(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	spec := map[string]any{
		"experiment": "s44",
		"params":     map[string]any{"tquery": []int{5}},
		"seed":       5,
		"replicates": 1,
	}
	resp, body := postJSON(t, ts.URL+"/runs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted run
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	r := waitRun(t, ts.URL, submitted.ID)
	if r.Status != "done" || r.Cached || r.Result == nil {
		t.Fatalf("first run: status=%s cached=%v result=%v err=%s", r.Status, r.Cached, r.Result != nil, r.Err)
	}
	if len(r.Result.Rows) != 1 || r.Result.Rows[0].Values["join(s)"].N != 1 {
		t.Fatalf("result rows = %+v", r.Result.Rows)
	}
	if r.Cells != 1 || r.FailedCells != 0 {
		t.Fatalf("cells=%d failed=%d", r.Cells, r.FailedCells)
	}

	// Progress: history plus the terminal summary line.
	presp, err := http.Get(ts.URL + "/runs/" + submitted.ID + "/progress")
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	plines, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(plines)), "\n")
	if len(lines) != 2 {
		t.Fatalf("progress lines = %q", lines)
	}
	var cellLine live.Line
	if err := json.Unmarshal([]byte(lines[0]), &cellLine); err != nil || cellLine.Events == 0 {
		t.Fatalf("cell line %q (err %v)", lines[0], err)
	}
	if !strings.Contains(lines[1], `"run_complete":true`) {
		t.Fatalf("terminal line %q", lines[1])
	}

	// Same spec again: served from the cache without running.
	resp, body = postJSON(t, ts.URL+"/runs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var second run
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatalf("decoding resubmit: %v", err)
	}
	if !second.Cached || second.Status != "done" || second.Result == nil {
		t.Fatalf("resubmit not served from cache: %+v", second)
	}
	if second.CacheKey != r.CacheKey {
		t.Fatalf("cache keys differ: %q vs %q", second.CacheKey, r.CacheKey)
	}

	// A fresh daemon over the same cache dir still has the result.
	_, ts2 := newTestServer(t, dir)
	resp, body = postJSON(t, ts2.URL+"/runs", spec)
	var third run
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatalf("decoding restart resubmit: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !third.Cached {
		t.Fatalf("restarted daemon missed the on-disk cache: %d %+v", resp.StatusCode, third)
	}

	// Different seed: a different key, so it runs (not cached).
	spec["seed"] = 6
	resp, body = postJSON(t, ts.URL+"/runs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("different seed was cache-hit: %d %s", resp.StatusCode, body)
	}
}

// TestAlteredCacheEntryRecomputed changes one digit of a cached result on
// disk. The entry still parses and carries the right key, but its checksum
// no longer matches, so a restarted daemon recomputes the run instead of
// serving the altered number, and the recomputed result replaces the
// entry.
func TestAlteredCacheEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	spec := map[string]any{
		"experiment": "s44",
		"params":     map[string]any{"tquery": []int{5}},
		"seed":       11,
		"replicates": 1,
	}
	submit := func(base string, want int) run {
		t.Helper()
		resp, body := postJSON(t, base+"/runs", spec)
		if resp.StatusCode != want {
			t.Fatalf("submit: status %d, want %d: %s", resp.StatusCode, want, body)
		}
		var r run
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
		return r
	}
	first := waitRun(t, ts.URL, submit(ts.URL, http.StatusAccepted).ID)
	if first.Status != "done" || first.Result == nil {
		t.Fatalf("first run: status=%s err=%s", first.Status, first.Err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files %v (err %v), want one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"mean": `))
	if at < 0 {
		t.Fatalf("no mean in the cached result:\n%s", data)
	}
	at += len(`"mean": `)
	if data[at] < '0' || data[at] > '9' {
		t.Fatalf("mean does not start with a digit: %q", data[at:at+8])
	}
	data[at] = '0' + (data[at]-'0'+1)%10
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("the altered entry no longer parses, so it tests nothing: %v", err)
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, dir)
	rerun := waitRun(t, ts2.URL, submit(ts2.URL, http.StatusAccepted).ID)
	if rerun.Status != "done" || rerun.Cached || !reflect.DeepEqual(rerun.Result, first.Result) {
		t.Fatalf("recomputed run: status=%s cached=%v, result %+v, want %+v", rerun.Status, rerun.Cached, rerun.Result, first.Result)
	}
	_, ts3 := newTestServer(t, dir)
	if again := submit(ts3.URL, http.StatusOK); !again.Cached || !reflect.DeepEqual(again.Result, first.Result) {
		t.Fatalf("rewritten entry not served: %+v", again)
	}
}

// TestDoneImpliesCached: a run is announced "done" only once its result is
// in the cache, so a client that sees "done" and at once asks a daemon on
// the same cache dir finds the entry. The test holds the cache's lock
// while the run computes, so a store waits where it stands, and checks at
// every poll that a "done" run has its cache file.
func TestDoneImpliesCached(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	spec := map[string]any{
		"experiment": "s44",
		"params":     map[string]any{"tquery": []int{5}},
		"seed":       13,
		"replicates": 2,
	}
	resp, body := postJSON(t, ts.URL+"/runs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted run
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	s.cache.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.cache.mu.Unlock()
		}
	}()
	cached := func() bool {
		_, err := os.Stat(s.cache.path(submitted.CacheKey))
		return err == nil
	}
	check := func() run {
		t.Helper()
		var r run
		if code := getJSON(t, ts.URL+"/runs/"+submitted.ID, &r); code != http.StatusOK {
			t.Fatalf("GET run: status %d", code)
		}
		if r.Status == "done" && !cached() {
			t.Fatal(`run announced "done" before its result was in the cache`)
		}
		return r
	}
	// Poll until both cells have finished, then a while longer: the run is
	// then between its last cell and its store.
	deadline := time.Now().Add(60 * time.Second)
	for check().Cells < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		check()
		time.Sleep(4 * time.Millisecond)
	}
	s.cache.mu.Unlock()
	locked = false
	if r := waitRun(t, ts.URL, submitted.ID); r.Status != "done" || !cached() {
		t.Fatalf("finished run: status=%s cached file=%v err=%s", r.Status, cached(), r.Err)
	}
}

// The acceptance criterion: a sweep with a deliberately failing cell
// completes with that cell marked errored, the result is not cached, and
// the daemon keeps serving.
func TestFailingCellContainedAndNotCached(t *testing.T) {
	_, ts := newTestServer(t, "")
	spec := map[string]any{"experiment": "zz-fail-cell", "seed": 3, "replicates": 1}
	_, body := postJSON(t, ts.URL+"/runs", spec)
	var submitted run
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("decoding submit: %v", err)
	}
	r := waitRun(t, ts.URL, submitted.ID)
	if r.Status != "done" {
		t.Fatalf("run with failing cell: status=%s err=%s", r.Status, r.Err)
	}
	if r.Cells != 2 || r.FailedCells != 1 {
		t.Fatalf("cells=%d failed=%d", r.Cells, r.FailedCells)
	}
	if r.Result == nil || len(r.Result.Rows) != 2 {
		t.Fatalf("result = %+v", r.Result)
	}
	if len(r.Result.Rows[1].Errors) != 1 ||
		!strings.Contains(r.Result.Rows[1].Errors[0], "deliberate cell failure") {
		t.Fatalf("failed row errors = %v", r.Result.Rows[1].Errors)
	}

	// Failed results never enter the cache: a resubmission runs again.
	resp, _ := postJSON(t, ts.URL+"/runs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failing spec was cached: %d", resp.StatusCode)
	}

	// And the daemon is still alive for other work.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after failing cell: %d", code)
	}
}

// A panic escaping the experiment's own Run (e.g. a typed assertion on a
// failed replicate's raw result) fails that run, not the daemon.
func TestRunLevelPanicFailsRunOnly(t *testing.T) {
	_, ts := newTestServer(t, "")
	_, body := postJSON(t, ts.URL+"/runs", map[string]any{"experiment": "zz-panic-run"})
	var submitted run
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("decoding submit: %v", err)
	}
	r := waitRun(t, ts.URL, submitted.ID)
	if r.Status != "failed" || !strings.Contains(r.Err, "panic:") {
		t.Fatalf("status=%s err=%q", r.Status, r.Err)
	}

	// The daemon survives and still runs healthy specs.
	_, body = postJSON(t, ts.URL+"/runs", map[string]any{"experiment": "zz-fail-cell", "seed": 9})
	var next run
	if err := json.Unmarshal(body, &next); err != nil {
		t.Fatalf("decoding follow-up submit: %v", err)
	}
	if got := waitRun(t, ts.URL, next.ID); got.Status != "done" {
		t.Fatalf("follow-up run status = %s", got.Status)
	}
}

// The warm-checkpoint pool: warm once, fork cells (including a bogus one,
// which errors alone), download the artifact, and get the pooled entry
// back on a duplicate warm request.
func TestCheckpointWarmAndFork(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, body := postJSON(t, ts.URL+"/checkpoints", map[string]any{"seed": 7})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("warm: %d %s", resp.StatusCode, body)
	}
	var entry warmEntry
	if err := json.Unmarshal(body, &entry); err != nil {
		t.Fatalf("decoding warm entry: %v", err)
	}
	if entry.Digest == "" || entry.TimeNs != int64(15*time.Second) {
		t.Fatalf("warm entry = %+v", entry)
	}

	// Duplicate request returns the pooled entry, not a new warm run.
	resp, body = postJSON(t, ts.URL+"/checkpoints", map[string]any{"seed": 7})
	var dup warmEntry
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatalf("decoding duplicate entry: %v", err)
	}
	if resp.StatusCode != http.StatusOK || dup.ID != entry.ID {
		t.Fatalf("duplicate warm: %d %+v (want pooled %s)", resp.StatusCode, dup, entry.ID)
	}

	// Fork two real cells and one bogus one.
	resp, body = postJSON(t, ts.URL+"/checkpoints/"+entry.ID+"/fork",
		map[string]any{"cells": []string{"baseline", "loss-10", "no-such-cell"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fork: %d %s", resp.StatusCode, body)
	}
	var results []forkResult
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("decoding fork results: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("fork results = %+v", results)
	}
	for i, cell := range []string{"baseline", "loss-10"} {
		if results[i].Err != "" || results[i].Outcome == nil || results[i].Outcome.Cell != cell {
			t.Fatalf("fork %s = %+v", cell, results[i])
		}
		if len(results[i].Outcome.Violations) != 0 {
			t.Fatalf("fork %s reported violations: %v", cell, results[i].Outcome.Violations)
		}
	}
	if !strings.Contains(results[2].Err, "unknown cell") || results[2].Outcome != nil {
		t.Fatalf("bogus cell = %+v", results[2])
	}

	// A forked outcome matches the cold run of the same cell exactly.
	opt := mip6mcast.ChaosOptions(scenario.DefaultOptions())
	opt.Seed = 7
	cold, err := mip6mcast.RunChaosCell(mip6mcast.StartChaos(opt), "baseline", "")
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	got, _ := json.Marshal(results[0].Outcome)
	want, _ := json.Marshal(cold)
	if string(got) != string(want) {
		t.Fatalf("forked outcome diverged from cold run:\ncold:   %s\nforked: %s", want, got)
	}

	// The artifact endpoint serves the versioned checkpoint bytes.
	aresp, err := http.Get(ts.URL + "/checkpoints/" + entry.ID)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	cp, err := checkpoint.Read(aresp.Body)
	aresp.Body.Close()
	if err != nil {
		t.Fatalf("artifact not a valid checkpoint: %v", err)
	}
	if cp.Digest != entry.Digest {
		t.Fatalf("artifact digest %s, pooled %s", cp.Digest, entry.Digest)
	}

	// Unknown ids 404.
	if code := getJSON(t, ts.URL+"/checkpoints/cp999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown checkpoint: %d", code)
	}
}
