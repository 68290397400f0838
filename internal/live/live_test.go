package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/sim"
)

func cell(point int) exp.CellStats {
	return exp.CellStats{Point: point, Engine: "pimdm", Wall: time.Millisecond,
		Sched: sim.RunStats{Dispatched: uint64(100 + point), Virtual: sim.Time(time.Second)}}
}

var final = map[string]bool{"run_complete": true}

// points decodes an NDJSON stream: the point of every cell line, and
// whether it ended with the final line.
func points(t *testing.T, stream string) (pts []int, closed bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	for i, l := range lines {
		if l == `{"run_complete":true}` {
			if i != len(lines)-1 {
				t.Fatalf("final line is not last: %q", lines)
			}
			return pts, true
		}
		var line Line
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		pts = append(pts, line.Point)
	}
	return pts, false
}

func TestLateClientGetsHistoryThenFinal(t *testing.T) {
	f := NewFeed()
	for i := 0; i < 3; i++ {
		f.Publish(NewLine("r1", "s44", cell(i)))
	}
	f.Close(final)
	f.Publish(NewLine("r1", "s44", cell(3))) // after Close: ignored
	f.Close(map[string]bool{"second": true})

	for client := 0; client < 2; client++ {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
		pts, closed := points(t, rec.Body.String())
		if !closed || len(pts) != 3 || pts[0] != 0 || pts[1] != 1 || pts[2] != 2 {
			t.Fatalf("client %d got points %v, final %v:\n%s", client, pts, closed, rec.Body)
		}
	}
}

func TestLineOmitsEmptyRunAndError(t *testing.T) {
	b, err := json.Marshal(NewLine("", "f1", cell(0)))
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); strings.Contains(s, `"run"`) || strings.Contains(s, `"error"`) {
		t.Fatalf("empty run and error fields encoded: %s", s)
	}
	failed := cell(0)
	failed.Err = "panic: boom"
	b, _ = json.Marshal(NewLine("r7", "f1", failed))
	if s := string(b); !strings.HasPrefix(s, `{"run":"r7","experiment":"f1",`) || !strings.HasSuffix(s, `"error":"panic: boom"}`) {
		t.Fatalf("daemon line = %s", s)
	}
}

func TestLiveClientSeesPublishOrderThenFinal(t *testing.T) {
	f := NewFeed()
	srv := httptest.NewServer(f)
	defer srv.Close()

	f.Publish(NewLine("", "f1", cell(0)))
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	// The first line comes from the history, so the client is subscribed
	// once it arrives; the rest travel live.
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		f.Publish(NewLine("", "f1", cell(i)))
	}
	f.Close(final)
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	pts, closed := points(t, first+string(rest))
	if !closed || len(pts) != 5 {
		t.Fatalf("got points %v, final %v", pts, closed)
	}
	for i, p := range pts {
		if p != i {
			t.Fatalf("points out of publish order: %v", pts)
		}
	}
}

// stalledWriter is a client that stops reading: its first Write reports
// on started, and every Write blocks until release closes.
type stalledWriter struct {
	header  http.Header
	started chan struct{}
	once    sync.Once
	release chan struct{}
	buf     bytes.Buffer
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.buf.Write(b)
}

func TestStalledClientNeverBlocksPublish(t *testing.T) {
	f := NewFeed()
	f.Publish(NewLine("", "f1", cell(0)))
	w := &stalledWriter{header: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		f.ServeHTTP(w, httptest.NewRequest("GET", "/progress", nil))
		close(served)
	}()
	<-w.started // stuck writing the history

	const n = 1000
	published := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			f.Publish(NewLine("", "f1", cell(i)))
		}
		f.Close(final)
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(30 * time.Second):
		t.Fatal("Publish blocked on a stalled client")
	}
	close(w.release)
	<-served

	// Once it reads again, the client catches up on every line.
	pts, closed := points(t, w.buf.String())
	if !closed || len(pts) != n+1 {
		t.Fatalf("stalled client got %d lines, final %v; want %d and the final line", len(pts), closed, n+1)
	}
	for i, p := range pts {
		if p != i {
			t.Fatalf("points out of publish order at %d: %d", i, p)
		}
	}
}

func TestMetricsCarryTagSeries(t *testing.T) {
	var tot Totals
	mux := http.NewServeMux()
	Mount(mux, &tot)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	if m := get("/metrics"); strings.Contains(m, "mip6sim_tag_") {
		t.Fatalf("tag series before any instrumented cell:\n%s", m)
	}
	tot.Begin("s44")
	c := cell(0)
	c.Sched.Tags = []sim.TagStat{{Tag: "", Events: 40, Wall: time.Millisecond}, {Tag: "link", Events: 60, Wall: 2 * time.Millisecond}}
	tot.Add(c)
	m := get("/metrics")
	for _, want := range []string{
		"mip6sim_cells_completed_total 1\n",
		"mip6sim_events_dispatched_total 100\n",
		`mip6sim_experiment_info{experiment="s44"} 1` + "\n",
		`mip6sim_tag_events_total{tag="link"} 60` + "\n",
		`mip6sim_tag_events_total{tag="untagged"} 40` + "\n",
		`mip6sim_tag_wall_seconds_total{tag="link"} 0.002` + "\n",
		"mip6sim_run_complete 0\n",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, m)
		}
	}
	tot.End()
	if m := get("/metrics"); !strings.Contains(m, "mip6sim_run_complete 1\n") {
		t.Fatalf("run not complete after End:\n%s", m)
	}
	get("/debug/pprof/")
}

func TestCostTableHottestFirst(t *testing.T) {
	var tot Totals
	c := cell(0)
	c.Sched.Wall = 10 * time.Millisecond
	c.Sched.Tags = []sim.TagStat{
		{Tag: "link", Events: 5, Wall: time.Millisecond},
		{Tag: "mld", Events: 1, Wall: 6 * time.Millisecond},
		{Tag: "pim", Events: 2, Wall: 3 * time.Millisecond},
	}
	tot.Add(c)
	tot.Add(c) // per-tag counts sum across cells
	var b strings.Builder
	tot.WriteTable(&b)
	lines := strings.Split(b.String(), "\n")
	if !strings.HasPrefix(lines[0], "sim top: 2 timeline cells, 200 events") {
		t.Fatalf("header %q", lines[0])
	}
	var order []string
	for _, l := range lines[3:] {
		if f := strings.Fields(l); len(f) > 0 {
			order = append(order, f[0]+"/"+f[1])
		}
	}
	if got := strings.Join(order, " "); got != "mld/2 pim/4 link/10" {
		t.Fatalf("table rows %q, want hottest first:\n%s", got, b.String())
	}
}
