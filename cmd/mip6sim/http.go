package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mip6mcast/internal/live"
)

// liveServer is the -http run surface:
//
//	/metrics      the run's live.Totals as Prometheus text
//	/progress     the run's live.Feed: every completed cell so far, then
//	              each one as it lands, then a "run_complete" line
//	/debug/pprof  the standard pprof endpoints; CPU profiles carry the
//	              tag=<handler tag> labels the scheduler applies when the
//	              run is started with -http (see sim.LabelProfiles)
type liveServer struct {
	feed *live.Feed
	srv  *http.Server
	// interrupted closes on the first SIGINT/SIGTERM (a second force-exits);
	// finish consults it so a signal received mid-run still cuts the linger.
	interrupted chan struct{}
}

// startHTTP binds addr and serves totals and a new feed in the
// background. The signal handler is installed immediately so a
// SIGINT/SIGTERM arriving mid-run is remembered and honored at linger time
// (a second signal force-exits).
func startHTTP(addr string, totals *live.Totals) (*liveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-http: %v", err)
	}
	s := &liveServer{feed: live.NewFeed(), interrupted: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	mux.Handle("/progress", s.feed)
	live.Mount(mux, totals)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc // first signal: remembered; honored when the run reaches linger
		close(s.interrupted)
		sig := <-sigc // second: force exit
		fmt.Fprintf(os.Stderr, "mip6sim: %v again, exiting\n", sig)
		os.Exit(1)
	}()

	fmt.Fprintf(os.Stderr, "serving http://%s/ (metrics, progress, debug/pprof)\n", ln.Addr())
	return s, nil
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "mip6sim live surface\n\n/metrics\t\tPrometheus text format\n/progress\tNDJSON stream of completed cells\n/debug/pprof/\tprofiles (CPU samples labeled tag=<handler tag>)\n")
}

// finish ends /progress with its run_complete line, lingers (so a human or
// scraper can grab /metrics or a profile after the tables print), and
// shuts the server down cleanly. A signal — even one received mid-run —
// ends the linger early.
func (s *liveServer) finish(linger time.Duration) {
	s.feed.Close(map[string]bool{"run_complete": true})
	if linger > 0 {
		fmt.Fprintf(os.Stderr, "run complete; serving for %v (interrupt to stop)\n", linger)
		select {
		case <-time.After(linger):
		case <-s.interrupted:
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}
