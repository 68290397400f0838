package bench

import (
	"testing"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/telemetry"
)

// BenchmarkTelemetryOverhead prices the telemetry sampling layer on the Figure-1
// macro workload: /off is the identical run with no registry (it must
// match BenchmarkFigure1Macro — the nil-registry hot path adds nothing),
// /on attaches the standard sampler set at the default 1 s cadence. The
// delta between the two is the total cost of time-series telemetry on a
// fully loaded timeline; the acceptance bar is within a few percent ns/op
// and a small fixed allocation budget (registry + samplers + rows).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, sampled bool) {
		b.ReportAllocs()
		var events uint64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			opt := mip6mcast.FastMLDOptions(10)
			opt.Seed = int64(i + 1)
			if sampled {
				opt.Telemetry = telemetry.NewRegistry()
			}
			f := buildFigure1(opt, 15*time.Second)
			f.Run(30 * time.Second)
			events += f.Sched.Processed()
			if sampled && len(opt.Telemetry.Rows()) == 0 {
				b.Fatal("telemetry attached but sampled nothing")
			}
		}
		wall := time.Since(start).Seconds()
		if wall > 0 {
			b.ReportMetric(float64(events)/wall, "events/sec")
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
