package mip6mcast

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/trace"
)

// buildHandover assembles the Figure 1 network through NewRun (the
// paper's services on every host, a CBR source on S, probes on the
// receivers, which send nothing and record nothing) and schedules R3's
// handover to Link 6 at moveAt.
func buildHandover(opt scenario.Options, approach Approach, moveAt time.Duration) *scenario.Network {
	f := NewRun(opt, approach, time.Second, 64).F
	if moveAt > 0 {
		f.Sched.Schedule(moveAt, func() { f.Move("R3", "L6") })
	}
	return f
}

// The recorded stream must be bit-reproducible for a fixed seed no matter
// how many workers drive sibling timelines — the acceptance bar for using
// traces to debug sweep results.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) map[string][]byte {
		var mu sync.Mutex
		recs := map[string]*obs.Recorder{}
		ctx := exp.Context{
			Opt:        FastMLDOptions(10),
			Replicates: 2,
			Workers:    workers,
			Recorder: func(pt, rep int) *obs.Recorder {
				r := obs.NewRecorder(nil)
				mu.Lock()
				recs[fmt.Sprintf("%d/%d", pt, rep)] = r
				mu.Unlock()
				return r
			},
		}
		moves := []time.Duration{12 * time.Second, 18 * time.Second}
		exp.Sweep(ctx, exp.SweepSpec{
			Points:  []string{"early", "late"},
			Columns: []string{"events"},
			Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
				f := buildHandover(opt, BidirectionalTunnel, moves[pt])
				f.Run(30 * time.Second)
				return map[string]float64{"events": float64(f.Sched.Processed())}, nil
			},
		})
		out := map[string][]byte{}
		for k, r := range recs {
			var buf bytes.Buffer
			if err := r.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if r.Len() == 0 {
				t.Fatalf("cell %s recorded nothing", k)
			}
			out[k] = buf.Bytes()
		}
		return out
	}

	serial, parallel := run(1), run(8)
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("cell counts: %d vs %d, want 4", len(serial), len(parallel))
	}
	for k, a := range serial {
		b, ok := parallel[k]
		if !ok {
			t.Fatalf("cell %s missing from parallel run", k)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cell %s: JSONL differs between workers=1 and workers=8", k)
		}
	}
}

// Same reproducibility bar under heavy State Refresh traffic. Refresh
// propagation fans out on every downstream interface of every router each
// interval, so an emission order that depends on map iteration (the bug this
// guards against) shows up here as a trace diff between worker counts.
func TestTraceDeterministicStateRefresh(t *testing.T) {
	run := func(workers int) map[string][]byte {
		var mu sync.Mutex
		recs := map[string]*obs.Recorder{}
		opt := FastMLDOptions(10)
		opt.PIM.StateRefreshInterval = 2 * time.Second
		ctx := exp.Context{
			Opt:        opt,
			Replicates: 2,
			Workers:    workers,
			Recorder: func(pt, rep int) *obs.Recorder {
				r := obs.NewRecorder(nil)
				mu.Lock()
				recs[fmt.Sprintf("%d/%d", pt, rep)] = r
				mu.Unlock()
				return r
			},
		}
		exp.Sweep(ctx, exp.SweepSpec{
			Points:  []string{"refresh"},
			Columns: []string{"events"},
			Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
				f := buildHandover(opt, BidirectionalTunnel, 15*time.Second)
				f.Run(30 * time.Second)
				return map[string]float64{"events": float64(f.Sched.Processed())}, nil
			},
		})
		out := map[string][]byte{}
		for k, r := range recs {
			var buf bytes.Buffer
			if err := r.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			out[k] = buf.Bytes()
		}
		return out
	}

	serial, parallel := run(1), run(8)
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("cell counts: %d vs %d, want 2", len(serial), len(parallel))
	}
	for k, a := range serial {
		if !bytes.Contains(a, []byte("pim-staterefresh")) {
			t.Errorf("cell %s recorded no State Refresh traffic; scenario not exercising the fix", k)
		}
		if !bytes.Equal(a, parallel[k]) {
			t.Errorf("cell %s: JSONL differs between workers=1 and workers=8 with State Refresh on", k)
		}
	}
}

// The Perfetto export of the Figure 1 handover must carry per-node
// state-machine tracks: the mobile node's binding lifecycle, the home
// agent's binding cache, PIM per-(S,G) machines and MLD listener state.
func TestPerfettoHandoverTracks(t *testing.T) {
	opt := FastMLDOptions(10)
	opt.Seed = 1
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	f := buildHandover(opt, BidirectionalTunnel, 15*time.Second)
	f.Run(40 * time.Second)

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	procByPid := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procByPid[e.Pid] = e.Args["name"].(string)
		}
	}
	tracks := map[string][]string{} // node -> thread names
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			node := procByPid[e.Pid]
			tracks[node] = append(tracks[node], e.Args["name"].(string))
		}
	}

	has := func(node, prefix string) bool {
		for _, tr := range tracks[node] {
			if len(tr) >= len(prefix) && tr[:len(prefix)] == prefix {
				return true
			}
		}
		return false
	}
	if !has("R3", "mip binding") {
		t.Errorf("R3 has no binding state track (tracks: %v)", tracks["R3"])
	}
	if !has("R3", "mld member") {
		t.Errorf("R3 has no MLD membership track (tracks: %v)", tracks["R3"])
	}
	haFound := false
	for _, name := range scenario.RouterNames() {
		if has(name, "ha ") {
			haFound = true
		}
	}
	if !haFound {
		t.Error("no router exposes a home-agent binding track")
	}
	pimFound, mldFound := false, false
	for _, name := range scenario.RouterNames() {
		if has(name, "pim ") {
			pimFound = true
		}
		if has(name, "mld ") {
			mldFound = true
		}
	}
	if !pimFound || !mldFound {
		t.Errorf("router protocol tracks missing: pim=%v mld=%v", pimFound, mldFound)
	}
	if len(tracks["net"]) == 0 {
		t.Error("no link tracks under the synthetic net process")
	}

	// The handover must actually show up as binding-state slices on R3.
	sawAway := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && procByPid[e.Pid] == "R3" && e.Name == "away-registered" {
			sawAway = true
		}
	}
	if !sawAway {
		t.Error("handover left no away-registered slice on R3's binding track")
	}
}

// Every wire event the Figure 1 scenarios produce, under either engine,
// must decode to a named kind: a fallback ("pim?", "icmp6?", "none") in
// the trace means the decoder lost track of a message type some protocol
// actually sends.
func TestFigure1TraceKindsKnown(t *testing.T) {
	for _, engine := range []string{"pimdm", "hpimdm"} {
		t.Run(engine, func(t *testing.T) {
			opt := FastMLDOptions(10)
			opt.Seed = 1
			opt.Engine = engine
			c := &trace.Collector{}
			f := buildHandover(opt, BidirectionalTunnel, 15*time.Second)
			c.Attach(f.Net)
			f.Run(40 * time.Second)

			kinds := c.Kinds()
			if len(kinds) == 0 {
				t.Fatal("collector saw no traffic")
			}
			for name, n := range kinds {
				k, ok := trace.KindNamed(name)
				if !ok {
					t.Errorf("kind %q (%d events) not in the known-kind list", name, n)
				}
				if k.Fallback() {
					t.Errorf("fallback kind %q appeared %d times in a Figure 1 run", name, n)
				}
			}
		})
	}
}
