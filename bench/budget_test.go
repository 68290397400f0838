//go:build !race

// The macro-cell gate. Excluded under -race: the race runtime instruments
// allocations and the counts no longer reflect the production build.
// scripts/check.sh runs it in its non-race AllocBudget pass.

package bench

import (
	"runtime"
	"testing"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/scenario"
)

// macroCell is one end-to-end cell the gate pins. run simulates it once
// and hands every network it builds to onNet.
type macroCell struct {
	name string
	run  func(t *testing.T, onNet func(*scenario.Network))
	// Exact: events dispatched by every region scheduler, frames sent on
	// every link (each half of a cut link counts its own) and the largest
	// region queue high-water mark.
	events, frames uint64
	queueHWM       int
	// Budgets for one run's heap objects and bytes, each at most 1.10 ×
	// the highest count measured with go1.24.0 on linux/amd64.
	allocs, bytes uint64
}

// scaleCell runs one cell of the registry's scale experiment on 100
// routers at seed 3, shaped like a mip6bench scale workload: a 30 s churn
// window, 2 ms core links, one shard worker. The cell must report zero
// invariant violations.
func scaleCell(family string, mns, dwell, shards int, approach, engine string) func(*testing.T, func(*scenario.Network)) {
	return func(t *testing.T, onNet func(*scenario.Network)) {
		opt := mip6mcast.DefaultOptions()
		opt.Seed = 3
		opt.Shards = shards
		opt.ShardWorkers = 1
		opt.CoreLinkDelay = 2 * time.Millisecond
		opt.OnNetwork = onNet
		res, err := mip6mcast.RunExperiment("scale",
			mip6mcast.ExpContext{Opt: opt, Replicates: 1, Workers: 1},
			mip6mcast.ExpParams{
				"families": family, "routers": []int{100}, "mns": mns, "dwell": dwell,
				"horizon": 30, "approach": approach, "engine": engine,
			})
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Stats[0].Errs[0]; e != "" {
			t.Fatal(e)
		}
		if v := res.Stats[0].Mean("violations"); v != 0 {
			t.Errorf("cell reported %v invariant violations", v)
		}
	}
}

// macroCells are the Figure 1 macro run (BenchmarkFigure1Macro's seed-1
// iteration) and the cells of mip6bench's ba-r100-sharded and
// grid-r100-tunnel-churn workloads.
var macroCells = []macroCell{
	{
		name: "fig1",
		run: func(t *testing.T, onNet func(*scenario.Network)) {
			opt := mip6mcast.FastMLDOptions(10)
			opt.Seed = 1
			opt.OnNetwork = onNet
			buildFigure1(opt, 15*time.Second).Run(30 * time.Second)
		},
		events: 3_421, frames: 1_849, queueHWM: 94,
		allocs: 2_860, bytes: 371_000,
	},
	{
		name:   "ba",
		run:    scaleCell("ba", 400, 20, 4, "local-membership", "pimdm"),
		events: 364_651, frames: 140_184, queueHWM: 2_286,
		allocs: 120_000, bytes: 9_130_000,
	},
	{
		name:   "grid",
		run:    scaleCell("grid", 150, 2, 1, "bidir-tunnel", "hpimdm"),
		events: 393_141, frames: 318_762, queueHWM: 3_421,
		allocs: 119_000, bytes: 9_190_000,
	},
}

// TestMacroCellAllocBudget runs each macro cell once and requires its
// event, frame and queue high-water counts exactly, so any change to a
// simulated timeline fails it, and its heap allocations under a budget
// 10% above what was measured, so one more allocation per forwarded
// datagram on a cell's path fails it. None of these numbers depends on
// the host; on a new Go release the allocation counts may shift and their
// budgets are re-measured, with the reason written down.
func TestMacroCellAllocBudget(t *testing.T) {
	// One warm-up run takes the process's one-time allocations (lazily
	// built tables, the runtime's type caches) out of every measured run.
	macroCells[0].run(t, nil)
	for _, c := range macroCells {
		t.Run(c.name, func(t *testing.T) {
			var nets []*scenario.Network
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.run(t, func(n *scenario.Network) { nets = append(nets, n) })
			runtime.ReadMemStats(&after)

			var events, frames uint64
			hwm := 0
			for _, n := range nets {
				for _, s := range n.Scheds() {
					events += s.Processed()
					hwm = max(hwm, s.QueueHighWater())
				}
				for _, l := range n.Net.Links {
					frames += l.TxFrames
				}
			}
			if events != c.events || frames != c.frames || hwm != c.queueHWM {
				t.Errorf("events %d, frames %d, queue high-water %d; want %d, %d, %d",
					events, frames, hwm, c.events, c.frames, c.queueHWM)
			}
			allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			t.Logf("%d allocations, %d B", allocs, bytes)
			if allocs > c.allocs {
				t.Errorf("%d allocations; budget %d", allocs, c.allocs)
			}
			if bytes > c.bytes {
				t.Errorf("%d B allocated; budget %d B", bytes, c.bytes)
			}
		})
	}
}
