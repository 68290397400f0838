// Package live is the run surface the commands share while experiment
// cells complete: the NDJSON progress feed, the run-wide totals behind
// /metrics and the per-tag cost table, and the pprof endpoints.
package live

import (
	"encoding/json"
	"net/http"
	"sync"

	"mip6mcast/internal/exp"
)

// Line is one completed cell on a progress feed, one NDJSON line. Run
// (mip6simd's run id) and Err (a failed cell's contained panic) are
// omitted when empty.
type Line struct {
	Run        string             `json:"run,omitempty"`
	Experiment string             `json:"experiment"`
	Point      int                `json:"point"`
	Replicate  int                `json:"replicate"`
	Label      string             `json:"label,omitempty"`
	Engine     string             `json:"engine,omitempty"`
	Events     uint64             `json:"events"`
	WallNs     int64              `json:"wall_ns"`
	VirtualNs  int64              `json:"virtual_ns"`
	EvPerSec   float64            `json:"ev_per_sec"`
	QueueHWM   int                `json:"queue_hwm"`
	Vals       map[string]float64 `json:"vals,omitempty"`
	Err        string             `json:"error,omitempty"`
}

// NewLine is the line for cell cs of experiment, in run.
func NewLine(run, experiment string, cs exp.CellStats) Line {
	return Line{
		Run:        run,
		Experiment: experiment,
		Point:      cs.Point,
		Replicate:  cs.Replicate,
		Label:      cs.Label,
		Engine:     cs.Engine,
		Events:     cs.Sched.Dispatched,
		WallNs:     int64(cs.Wall),
		VirtualNs:  int64(cs.Sched.Virtual),
		EvPerSec:   cs.EventsPerSec(),
		QueueHWM:   cs.Sched.QueueHighWater,
		Vals:       cs.Vals,
		Err:        cs.Err,
	}
}

// Feed keeps every line published to it and serves them as an NDJSON
// stream: each client gets the lines published so far, then each new one,
// then the final line passed to Close. A client reads the kept lines at
// its own pace, so a slow one never stalls Publish and never misses a
// line.
type Feed struct {
	mu    sync.Mutex
	lines [][]byte      // each ends in '\n'
	final []byte        // set once, by Close
	wake  chan struct{} // closed, and replaced, at each Publish; closed by Close
}

// NewFeed returns an empty, open feed.
func NewFeed() *Feed { return &Feed{wake: make(chan struct{})} }

// Publish appends l to the feed. It is ignored after Close, and so is a
// line JSON cannot encode (a NaN column value).
func (f *Feed) Publish(l Line) {
	b, err := json.Marshal(l)
	if err != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.final == nil {
		f.lines = append(f.lines, append(b, '\n'))
		close(f.wake)
		f.wake = make(chan struct{})
	}
}

// Close ends the feed with final, JSON-encoded. Later calls are ignored.
func (f *Feed) Close(final any) {
	b, _ := json.Marshal(final) // both commands pass maps of strings, numbers and bools
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.final == nil {
		f.final = append(b, '\n')
		close(f.wake)
	}
}

// ServeHTTP streams the feed until the final line is sent or the client
// goes away.
func (f *Feed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	for sent := 0; ; {
		f.mu.Lock()
		lines, final, wake := f.lines[sent:], f.final, f.wake
		f.mu.Unlock()
		sent += len(lines)
		for _, l := range lines {
			w.Write(l)
		}
		if final != nil {
			w.Write(final)
			return
		}
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
