package trace_test

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/trace"
)

// The trace tests run a short end-to-end scenario and assert that the
// decoded event stream contains the protocol sequence the paper describes.
func runScenario(t *testing.T) *trace.Collector {
	t.Helper()
	opt := scenario.DefaultOptions()
	opt.MLD = mld.FastConfig(30 * time.Second)
	f := scenario.NewFigure1(opt)
	col := &trace.Collector{}
	col.Attach(f.Net)

	svcs := map[string]*core.Service{}
	for _, name := range scenario.HostNames() {
		h := f.Hosts[name]
		svcs[name] = core.NewService(h.MN, h.MLD, core.BidirectionalTunnel)
	}
	svcs["R3"].Join(scenario.Group)
	cbr := scenario.NewCBR(f.Sched, 1, 200*time.Millisecond, 64, func(p []byte) {
		svcs["S"].Send(scenario.Group, p)
	})
	_ = cbr
	f.Run(30 * time.Second)
	f.Move("R3", "L6")
	f.Run(60 * time.Second)
	f.Move("S", "L6")
	f.Run(60 * time.Second)
	return col
}

func TestTraceCapturesProtocolSequence(t *testing.T) {
	col := runScenario(t)
	kinds := col.Kinds()
	for _, want := range []string{
		"data", "mld-query", "mld-report", "pim-hello", "pim-prune",
		"ndp-rs", "ndp-ra", "bu", "back",
	} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in trace; kinds=%v", want, kinds)
		}
	}
	// Tunneled data must appear after the receiver's move.
	sawTunnel := false
	for _, e := range col.Events {
		if e.Kind == "data" && e.TunnelDepth > 0 {
			sawTunnel = true
			break
		}
	}
	if !sawTunnel {
		t.Error("no tunneled data events")
	}
}

func TestEventStringFormatting(t *testing.T) {
	col := runScenario(t)
	var data, bu, tunneled string
	for _, e := range col.Events {
		s := e.String()
		if s == "" {
			t.Fatal("empty event string")
		}
		switch {
		case e.Kind == "data" && e.TunnelDepth > 0 && tunneled == "":
			tunneled = s
		case e.Kind == "data" && data == "":
			data = s
		case e.Kind == "bu" && bu == "":
			bu = s
		}
	}
	if !strings.Contains(data, "data") || !strings.Contains(data, "ff0e::101") {
		t.Errorf("data line: %q", data)
	}
	if !strings.Contains(bu, "seq=") || !strings.Contains(bu, "life=") {
		t.Errorf("bu line: %q", bu)
	}
	if !strings.Contains(tunneled, "tunnel=1") || !strings.Contains(tunneled, "outer") {
		t.Errorf("tunneled line: %q", tunneled)
	}
}

func TestCollectorFilter(t *testing.T) {
	opt := scenario.DefaultOptions()
	f := scenario.NewFigure1(opt)
	col := &trace.Collector{Filter: func(e trace.Event) bool { return e.Kind == "pim-hello" }}
	col.Attach(f.Net)
	f.Run(40 * time.Second)
	if len(col.Events) == 0 {
		t.Fatal("no hellos collected")
	}
	for _, e := range col.Events {
		if e.Kind != "pim-hello" {
			t.Fatalf("filter leaked %q", e.Kind)
		}
	}
}

func TestWriterOutput(t *testing.T) {
	opt := scenario.DefaultOptions()
	f := scenario.NewFigure1(opt)
	var sb strings.Builder
	w := &trace.Writer{W: &sb, Filter: func(e trace.Event) bool { return e.Kind == "pim-hello" }}
	w.Attach(f.Net)
	f.Run(40 * time.Second)
	if w.Count == 0 || !strings.Contains(sb.String(), "pim-hello") {
		t.Fatalf("writer produced %d events:\n%s", w.Count, sb.String())
	}
}
