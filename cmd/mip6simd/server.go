package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mip6mcast"
	"mip6mcast/internal/checkpoint"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/live"
	"mip6mcast/internal/scenario"
)

// runSpec is the POST /runs request body: a registry experiment plus the
// run-wide knobs mip6sim takes as flags. Parameter values use the JSON
// forms of the declared kinds (numbers for int/float, arrays for lists).
type runSpec struct {
	Experiment   string         `json:"experiment"`
	Params       map[string]any `json:"params,omitempty"`
	Seed         int64          `json:"seed,omitempty"`
	Replicates   int            `json:"replicates,omitempty"`
	Workers      int            `json:"workers,omitempty"`
	Shards       int            `json:"shards,omitempty"`
	ShardWorkers int            `json:"shard_workers,omitempty"`
	CoreDelayMs  int            `json:"core_delay_ms,omitempty"`
	// NoCache skips the result cache for this submission (both lookup and
	// store) — for fresh wall-clock measurements.
	NoCache bool `json:"no_cache,omitempty"`
}

// run is one submitted spec's lifecycle. Exported fields form the
// GET /runs/{id} response.
type run struct {
	ID     string  `json:"id"`
	Spec   runSpec `json:"spec"`
	Status string  `json:"status"` // running | done | failed
	// Err is the run-level failure (a panic escaping the experiment's Run,
	// or a registry/validation error surfaced after submission).
	Err string `json:"error,omitempty"`
	// Cached marks a result served from the cache without running.
	Cached   bool   `json:"cached"`
	CacheKey string `json:"cache_key"`
	// Cells and FailedCells count completed and errored timeline cells.
	Cells       int             `json:"cells"`
	FailedCells int             `json:"failed_cells"`
	Result      *exp.JSONResult `json:"result,omitempty"`

	feed *live.Feed // GET /runs/{id}/progress
}

// warmEntry is one pooled chaos checkpoint: the captured artifact, the
// options that rebuild it, and (until the first fork consumes it) the
// live warmed run itself, which forks without replaying the ramp.
type warmEntry struct {
	ID       string `json:"id"`
	CacheKey string `json:"cache_key"`
	Seed     int64  `json:"seed"`
	Engine   string `json:"engine"`
	TimeNs   int64  `json:"t_ns"`
	Digest   string `json:"digest"`
	Forks    int    `json:"forks"`
	cp       *checkpoint.Checkpoint
	opt      scenario.Options
	live     *mip6mcast.Run
}

type server struct {
	mu      sync.Mutex
	runs    map[string]*run
	order   []string
	nextRun int

	warm      map[string]*warmEntry
	warmByKey map[string]string
	nextWarm  int

	cache   *resultCache
	workers int
	totals  live.Totals // every run's cells, for /metrics
}

func newServer(cacheDir string, workers int) (*server, error) {
	c, err := newResultCache(cacheDir)
	if err != nil {
		return nil, err
	}
	return &server{
		runs:      map[string]*run{},
		warm:      map[string]*warmEntry{},
		warmByKey: map[string]string{},
		cache:     c,
		workers:   workers,
	}, nil
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /runs", s.handlePostRun)
	mux.HandleFunc("GET /runs", s.handleListRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /runs/{id}/progress", s.handleRunProgress)
	mux.HandleFunc("POST /checkpoints", s.handlePostCheckpoint)
	mux.HandleFunc("GET /checkpoints", s.handleListCheckpoints)
	mux.HandleFunc("GET /checkpoints/{id}", s.handleGetCheckpoint)
	mux.HandleFunc("POST /checkpoints/{id}/fork", s.handleFork)
	live.Mount(mux, &s.totals)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleExperiments lists the registry with each experiment's parameter
// schema, so clients can build specs without reading the source.
func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type paramInfo struct {
		Name    string `json:"name"`
		Desc    string `json:"desc"`
		Kind    string `json:"kind"`
		Default any    `json:"default"`
	}
	type expInfo struct {
		Name   string      `json:"name"`
		Desc   string      `json:"desc"`
		Sweep  bool        `json:"sweep"`
		Params []paramInfo `json:"params,omitempty"`
	}
	var out []expInfo
	for _, e := range exp.All() {
		ei := expInfo{Name: e.Name, Desc: e.Desc, Sweep: e.Sweep}
		for _, p := range e.Params {
			ei.Params = append(ei.Params, paramInfo{
				Name: p.Name, Desc: p.Desc, Kind: p.Kind.String(), Default: p.Default,
			})
		}
		out = append(out, ei)
	}
	writeJSON(w, http.StatusOK, out)
}

// specKey builds the canonical cache key for a spec: the resolved
// parameter set (so two spellings of the same defaults collide), the seed
// and the scenario-level knobs that change measured results. Worker
// counts are deliberately excluded — they never affect a timeline.
func specKey(spec runSpec, resolved exp.Params) string {
	params := make(map[string]string, len(resolved)+2)
	for name, v := range resolved {
		params[name] = fmt.Sprintf("%v", v)
	}
	params["_replicates"] = fmt.Sprintf("%d", spec.Replicates)
	if spec.CoreDelayMs != 0 {
		params["_core_delay_ms"] = fmt.Sprintf("%d", spec.CoreDelayMs)
	}
	m := checkpoint.Meta{
		Experiment: spec.Experiment,
		Params:     params,
		Seed:       spec.Seed,
		Shards:     spec.Shards,
	}
	return m.CacheKey()
}

func (s *server) handlePostRun(w http.ResponseWriter, req *http.Request) {
	var spec runSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	e, ok := exp.Get(spec.Experiment)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown experiment %q (have %v)", spec.Experiment, exp.Names())
		return
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Replicates < 1 {
		spec.Replicates = 1
	}
	resolved, err := e.ResolveParams(spec.Params)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := specKey(spec, resolved)

	s.mu.Lock()
	s.nextRun++
	r := &run{
		ID:       fmt.Sprintf("r%d", s.nextRun),
		Spec:     spec,
		Status:   "running",
		CacheKey: key,
		feed:     live.NewFeed(),
	}
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.mu.Unlock()

	if !spec.NoCache {
		if jr, ok := s.cache.get(key); ok {
			s.mu.Lock()
			r.Status = "done"
			r.Cached = true
			r.Result = jr
			snap := *r
			s.mu.Unlock()
			s.finish(r)
			writeJSON(w, http.StatusOK, snap)
			return
		}
	}
	go s.execute(r, resolved)
	s.mu.Lock()
	snap := *r
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, snap)
}

// execute runs one submitted spec to completion. The recover here is the
// run-level containment: internal/exp already contains per-cell panics,
// but an experiment's own reduction code (e.g. a typed Raw assertion on a
// failed replicate) can still panic — that fails this run, not the daemon.
func (s *server) execute(r *run, resolved exp.Params) {
	defer s.finish(r)
	defer func() {
		if rec := recover(); rec != nil {
			stack := debug.Stack()
			if len(stack) > 4096 {
				stack = stack[:4096]
			}
			s.mu.Lock()
			r.Status = "failed"
			r.Err = fmt.Sprintf("panic: %v\n%s", rec, stack)
			s.mu.Unlock()
		}
	}()

	spec := r.Spec
	s.totals.Begin(spec.Experiment)
	opt := scenario.DefaultOptions()
	opt.Seed = spec.Seed
	opt.Shards = spec.Shards
	opt.ShardWorkers = spec.ShardWorkers
	if spec.CoreDelayMs > 0 {
		opt.CoreLinkDelay = time.Duration(spec.CoreDelayMs) * time.Millisecond
	}
	workers := spec.Workers
	if workers == 0 {
		workers = s.workers
	}
	ctx := exp.Context{
		Opt:        opt,
		Replicates: spec.Replicates,
		Workers:    workers,
		Progress:   func(cs exp.CellStats) { s.observe(r, cs) },
	}
	res, err := exp.Run(spec.Experiment, ctx, resolved)
	if err != nil {
		s.mu.Lock()
		r.Status = "failed"
		r.Err = err.Error()
		s.mu.Unlock()
		return
	}
	jr := exp.ResultJSON(spec.Experiment, ctx, resolved, res)

	s.mu.Lock()
	failed := r.FailedCells
	s.mu.Unlock()
	// Only clean results enter the cache: a spec with failing cells should
	// rerun on resubmission, not replay its failure from the cache. The
	// entry is stored before the run is announced "done", so a client that
	// sees "done" finds it on any daemon sharing the cache dir.
	if !spec.NoCache && failed == 0 {
		s.cache.put(r.CacheKey, &jr)
	}
	s.mu.Lock()
	r.Status = "done"
	r.Result = &jr
	s.mu.Unlock()
}

// observe is the run's Progress callback: fold the cell into the run's
// counters and the daemon's totals, and publish its progress line.
func (s *server) observe(r *run, cs exp.CellStats) {
	s.mu.Lock()
	r.Cells++
	if cs.Err != "" {
		r.FailedCells++
	}
	s.mu.Unlock()
	s.totals.Add(cs)
	r.feed.Publish(live.NewLine(r.ID, r.Spec.Experiment, cs))
}

// finish ends the run's progress feed with a summary line carrying its
// terminal status.
func (s *server) finish(r *run) {
	s.mu.Lock()
	final := map[string]any{
		"run": r.ID, "run_complete": true, "status": r.Status,
		"cells": r.Cells, "failed_cells": r.FailedCells, "cached": r.Cached,
	}
	s.mu.Unlock()
	r.feed.Close(final)
}

func (s *server) handleListRuns(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	out := make([]run, 0, len(s.order))
	for _, id := range s.order {
		r := *s.runs[id]
		r.Result = nil // list view stays small; fetch /runs/{id} for the result
		out = append(out, r)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleGetRun(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r, ok := s.runs[req.PathValue("id")]
	var snap run
	if ok {
		snap = *r
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleRunProgress streams the run's NDJSON lines: full history first,
// then live lines until the run finishes or the client goes away. A final
// summary line carries the terminal status.
func (s *server) handleRunProgress(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	r, ok := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	r.feed.ServeHTTP(w, req)
}

// checkpointSpec is the POST /checkpoints body. Only the chaos experiment
// has a warmable shared prefix today (every cell's first 15 s are
// identical); the endpoint validates that.
type checkpointSpec struct {
	Experiment string `json:"experiment,omitempty"` // defaults to "chaos"
	Seed       int64  `json:"seed,omitempty"`
	Engine     string `json:"engine,omitempty"` // defaults to "pimdm"
}

func (s *server) handlePostCheckpoint(w http.ResponseWriter, req *http.Request) {
	var spec checkpointSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if spec.Experiment == "" {
		spec.Experiment = "chaos"
	}
	if spec.Experiment != "chaos" {
		httpError(w, http.StatusBadRequest,
			"only the chaos experiment has a warmable shared prefix (got %q)", spec.Experiment)
		return
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	opt := mip6mcast.ChaosOptions(scenario.DefaultOptions())
	opt.Seed = spec.Seed
	if spec.Engine != "" {
		opt.Engine = spec.Engine
	}
	meta := checkpoint.Meta{
		Experiment: "chaos-warm",
		Seed:       spec.Seed,
		Engine:     opt.EngineName(),
	}
	key := meta.CacheKey()

	s.mu.Lock()
	if id, ok := s.warmByKey[key]; ok {
		entry := s.warm[id]
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, entry)
		return
	}
	s.mu.Unlock()

	entry, err := s.buildWarm(key, meta, opt)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "warming chaos prefix: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, entry)
}

// buildWarm runs the chaos warm prefix once, captures it, and pools the
// artifact together with the still-live warmed run. The prefix run
// happens outside the server lock; a concurrent duplicate request loses
// the insert race and adopts the winner's entry.
func (s *server) buildWarm(key string, meta checkpoint.Meta, opt scenario.Options) (entry *warmEntry, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			entry, err = nil, fmt.Errorf("panic: %v", rec)
		}
	}()
	live := mip6mcast.StartChaos(opt)
	cp := checkpoint.Capture(live.F, meta)

	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.warmByKey[key]; ok {
		return s.warm[id], nil
	}
	s.nextWarm++
	entry = &warmEntry{
		ID:       fmt.Sprintf("cp%d", s.nextWarm),
		CacheKey: key,
		Seed:     opt.Seed,
		Engine:   opt.EngineName(),
		TimeNs:   int64(cp.Time),
		Digest:   cp.Digest,
		cp:       cp,
		opt:      opt,
		live:     live,
	}
	s.warm[entry.ID] = entry
	s.warmByKey[key] = entry.ID
	return entry, nil
}

func (s *server) handleListCheckpoints(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.warm))
	for id := range s.warm {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]warmEntry, 0, len(ids))
	for _, id := range ids {
		out = append(out, *s.warm[id])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleGetCheckpoint serves the versioned artifact itself — the same
// bytes checkpoint.Write produces, so it can be saved and inspected.
func (s *server) handleGetCheckpoint(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	entry, ok := s.warm[req.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no checkpoint %q", req.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	checkpoint.Write(w, entry.cp)
}

// forkSpec is the POST /checkpoints/{id}/fork body.
type forkSpec struct {
	// Cells names the impairment cells to run; empty means the full matrix.
	Cells []string `json:"cells,omitempty"`
	// Tracedir, when set, writes each cell's JSONL trace there.
	Tracedir string `json:"tracedir,omitempty"`
}

// forkResult is one cell's verdict (or containment error).
type forkResult struct {
	Cell    string                  `json:"cell"`
	Err     string                  `json:"error,omitempty"`
	Outcome *mip6mcast.ChaosOutcome `json:"outcome,omitempty"`
}

// handleFork drives impairment cells from a pooled warm checkpoint. The
// first fork consumes the live warmed run directly — no ramp replay at
// all; later forks restore from the artifact (replay + verify). Each
// cell runs under its own containment, so one panicking cell reports an
// error entry while the rest complete.
func (s *server) handleFork(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	entry, ok := s.warm[req.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no checkpoint %q", req.PathValue("id"))
		return
	}
	var spec forkSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	cells := spec.Cells
	if len(cells) == 0 {
		cells = mip6mcast.ChaosCells()
	}

	out := make([]forkResult, len(cells))
	for i, cell := range cells {
		out[i] = s.forkOne(entry, cell, spec.Tracedir)
	}
	s.mu.Lock()
	entry.Forks += len(cells)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// forkOne runs one cell from the warm state, contained.
func (s *server) forkOne(entry *warmEntry, cell, tracedir string) (fr forkResult) {
	fr.Cell = cell
	defer func() {
		if rec := recover(); rec != nil {
			stack := debug.Stack()
			if len(stack) > 4096 {
				stack = stack[:4096]
			}
			fr.Err = fmt.Sprintf("panic: %v\n%s", rec, stack)
			fr.Outcome = nil
		}
	}()

	// Take the live warmed run if it is still unconsumed.
	s.mu.Lock()
	warmed := entry.live
	entry.live = nil
	s.mu.Unlock()

	if warmed == nil {
		var rebuilt *mip6mcast.Run
		if _, err := checkpoint.Restore(entry.cp, func() (*scenario.Network, error) {
			rebuilt = mip6mcast.StartChaos(entry.opt)
			return rebuilt.F, nil
		}); err != nil {
			fr.Err = err.Error()
			return fr
		}
		warmed = rebuilt
	}
	outcome, err := mip6mcast.RunChaosCell(warmed, cell, tracedir)
	if err != nil {
		fr.Err = err.Error()
		return fr
	}
	fr.Outcome = &outcome
	return fr
}
