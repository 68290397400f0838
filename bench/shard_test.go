package bench

import (
	"fmt"
	"testing"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/exp"
)

// BenchmarkShardedTimeline measures the parallel event kernel at several
// region counts on the same cells: the ba-r500 headline capacity cell and
// a 2000-router / 10000-MN cell that only became tractable with sharding.
// Every network runs on a sim.Kernel: shards=1 is a kernel of one region,
// which runs one window per driver action, sampler or deadline; shards=2/4/8
// partition the router graph and run regions in parallel with a 2 ms
// core-link lookahead. CoreLinkDelay is set at every shard count so the
// timelines simulate the same network and events/sec compares
// apples-to-apples. ShardWorkers is left at 0, which runs one goroutine
// per region: 2, 4 or 8 goroutines whatever the host's core count, so on
// a 2-core host shards=2 is the only layout whose regions can all run at
// once (GOMAXPROCS bounds how many do), and the 4- and 8-region lines
// measure regions contending for 2 cores, not a 4- or 8-way speedup.
// Every iteration asserts zero invariant violations, so the 2000-router
// cell doubles as the large-scale correctness gate. queue-hwm is the
// largest region's event-queue high-water mark over the iterations;
// windows is the kernel's window count per iteration (Kernel.Windows, read
// through an OnNetwork hook) and events/window the dispatched events per
// window, the work a window barrier pays for.
func BenchmarkShardedTimeline(b *testing.B) {
	cases := []struct {
		routers, mns int
	}{
		{500, 2000},
		{2000, 10000},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2, 4, 8} {
			tc, shards := tc, shards
			b.Run(fmt.Sprintf("ba-r%d-mn%d/shards-%d", tc.routers, tc.mns, shards), func(b *testing.B) {
				b.ReportAllocs()
				var events, windows uint64
				hwm := 0
				start := time.Now()
				for i := 0; i < b.N; i++ {
					opt := mip6mcast.DefaultOptions()
					opt.Seed = int64(i + 1)
					opt.Shards = shards
					opt.CoreLinkDelay = 2 * time.Millisecond
					var f *mip6mcast.Network
					opt.OnNetwork = func(n *mip6mcast.Network) { f = n }
					ctx := mip6mcast.ExpContext{
						Opt: opt, Replicates: 1, Workers: 1,
						Progress: func(cs exp.CellStats) {
							events += cs.Sched.Dispatched
							hwm = max(hwm, cs.Sched.QueueHighWater)
						},
					}
					res, err := mip6mcast.RunExperiment("scale", ctx, mip6mcast.ExpParams{
						"families": "ba",
						"routers":  []int{tc.routers},
						"mns":      tc.mns,
						"horizon":  30,
					})
					if err != nil {
						b.Fatal(err)
					}
					if v := res.Stats[0].Mean("violations"); v != 0 {
						b.Fatalf("cell reported %v invariant violations", v)
					}
					windows += f.Kern.Windows()
				}
				wall := time.Since(start).Seconds()
				if wall > 0 {
					b.ReportMetric(float64(events)/wall, "events/sec")
				}
				b.ReportMetric(float64(hwm), "queue-hwm")
				b.ReportMetric(float64(windows)/float64(b.N), "windows")
				if windows > 0 {
					b.ReportMetric(float64(events)/float64(windows), "events/window")
				}
			})
		}
	}
}
