// Package bench holds the `go test -bench` macro benchmarks: a full
// Figure-1 handover run (the workload every paper metric rests on), the
// scale and sharded-kernel cells, the engine head-to-head, and the
// telemetry and checkpoint overhead cells. `make bench` prints their
// numbers, with the per-layer micro-benchmarks. Timings are the host's
// that ran them, so one run against another recorded elsewhere is no
// evidence of a speed change: judge a change by the benchmark
// BENCHMARK.json declares (mip6bench, see mip6bench/README.md), which runs
// the parent and the candidate on the same host. What does not depend on
// the host is gated in a plain test: TestMacroCellAllocBudget pins the
// Figure 1 and r100 scale cells' event, frame and queue counts exactly and
// their allocations under constant budgets.
package bench

import (
	"testing"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/core"
	"mip6mcast/internal/scenario"
)

// buildFigure1 assembles the paper's Figure 1 network with the full
// protocol stack, three receivers, a CBR source on S and R3's handover —
// the same shape obs_integration_test.go uses as its determinism oracle.
func buildFigure1(opt scenario.Options, moveAt time.Duration) *scenario.Network {
	approach := mip6mcast.BidirectionalTunnel
	opt.ResendOnMove = core.RecommendedHostMLD(approach, opt.ResendOnMove)
	f := scenario.NewFigure1(opt)
	svcs := map[string]*core.Service{}
	for _, name := range scenario.HostNames() {
		h := f.Hosts[name]
		svcs[name] = core.NewService(h.MN, h.MLD, approach)
	}
	for _, r := range []string{"R1", "R2", "R3"} {
		svcs[r].Join(scenario.Group)
	}
	scenario.NewCBR(f.Sched, 1, 100*time.Millisecond, 256, func(p []byte) {
		svcs["S"].Send(scenario.Group, p)
	})
	if moveAt > 0 {
		f.Sched.Schedule(moveAt, func() { f.Move("R3", "L6") })
	}
	return f
}

// BenchmarkFigure1Macro runs the complete Figure-1 handover scenario —
// NDP/SLAAC bring-up, PIM/MLD convergence, 10 pps CBR streaming to three
// receivers, one mid-run handover — for 30 virtual seconds per iteration.
// B/op and allocs/op are the per-run costs of the whole simulated data and
// control plane; events/sec is the kernel dispatch rate.
func BenchmarkFigure1Macro(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		opt := mip6mcast.FastMLDOptions(10)
		opt.Seed = int64(i + 1)
		f := buildFigure1(opt, 15*time.Second)
		f.Run(30 * time.Second)
		events += f.Sched.Processed()
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(float64(events)/wall, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}
