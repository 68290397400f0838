//go:build !race

// Allocation budget for SPF set-up. Excluded under -race: the race runtime
// instruments allocations and the counts no longer reflect the production
// build. scripts/check.sh runs it in a separate non-race pass.

package routing_test

import (
	"fmt"
	"runtime"
	"testing"
)

// recomputeAllocsBudget bounds the objects one Recompute allocates at
// every router count: the router list, the shared adjacency, the entry
// and first-hop blocks, the tables, visited marks and BFS queue (14 at
// 100 and at 500 routers when this was written).
const recomputeAllocsBudget = 16

// recomputeBytesBudget bounds the bytes Recompute allocates on the
// 100-router network: 100 routers × 296 links × 4 B of entries, the
// first-hop lists, the adjacency and the BFS scratch, measured 176,714 B
// (1.10 × that, rounded down). A table twice as wide fails it, as the
// object count alone would not notice.
const recomputeBytesBudget = 194_000

// TestRecomputeAllocBudget pins Recompute on 100- and 500-router
// Barabási–Albert networks at recomputeAllocsBudget objects, a number
// that does not grow with the routers (one allocation per router table
// cost 112 and 512), and on the 100-router one at recomputeBytesBudget
// bytes (32-byte entries cost 1,002,184 B). Map-based tables cost about
// 47 allocations per router on this network.
func TestRecomputeAllocBudget(t *testing.T) {
	for _, routers := range []int{100, 500} {
		t.Run(fmt.Sprintf("ba-r%d", routers), func(t *testing.T) {
			f := routerNet(t, "ba", routers, 1, 0)
			allocs := testing.AllocsPerRun(20, f.Dom.Recompute)
			bytes := bytesPerRun(20, f.Dom.Recompute)
			t.Logf("Recompute on %d routers, %d links: %v allocs, %.0f B", len(f.RouterOrder()), len(f.Net.Links), allocs, bytes)
			if allocs > recomputeAllocsBudget {
				t.Errorf("Recompute allocates %v objects for %d routers; budget %d", allocs, routers, recomputeAllocsBudget)
			}
			if routers == 100 && bytes > recomputeBytesBudget {
				t.Errorf("Recompute allocates %.0f B for %d routers; budget %d B", bytes, routers, recomputeBytesBudget)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes one
// call of f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
