// Command mip6simd is the long-running sweep service: a stdlib net/http
// server that accepts registry experiment specs, runs them on background
// workers, streams per-cell progress as NDJSON and serves /metrics and
// pprof (the internal/live surface mip6sim's -http serves), caches
// results keyed by (experiment, params, seed), and maintains a pool of
// warmed-up chaos checkpoints that impairment cells fork from instead of
// each replaying the shared ramp.
//
//	POST /runs                    submit a spec; returns the run record
//	GET  /runs                    list runs
//	GET  /runs/{id}               one run: status, error, result
//	GET  /runs/{id}/progress      NDJSON: history, live cell lines, run_complete
//	GET  /experiments             the experiment registry with schemas
//	POST /checkpoints             warm the chaos prefix, capture, pool it
//	GET  /checkpoints             list pooled checkpoints
//	GET  /checkpoints/{id}        download the checkpoint artifact
//	POST /checkpoints/{id}/fork   run impairment cells from the warm state
//	GET  /healthz                 liveness probe
//	GET  /metrics                 Prometheus text: totals over every run's cells
//	GET  /debug/pprof/            profiles
//
// Every run executes under per-cell panic containment (internal/exp) plus
// a run-level recover here, so a failing cell — or a failing experiment —
// marks its run failed while the daemon keeps serving.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8047", "listen address")
		cacheDir = flag.String("cache-dir", "", "persist cached results here (empty: in-memory only)")
		workers  = flag.Int("workers", 0, "default per-run timeline workers (0 = GOMAXPROCS); specs may override")
	)
	flag.Parse()

	s, err := newServer(*cacheDir, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv := &http.Server{Handler: s.mux()}
	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		srv.Close()
	}()
	fmt.Fprintf(os.Stderr, "mip6simd serving http://%s/ (runs, experiments, checkpoints, metrics, debug/pprof)\n", ln.Addr())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
