//go:build !race

// Allocation budget for SPF set-up. Excluded under -race: the race runtime
// instruments allocations and the counts no longer reflect the production
// build. scripts/check.sh runs it in a separate non-race pass.

package routing_test

import (
	"runtime"
	"testing"
)

// recomputeBytesBudget bounds the bytes Recompute allocates on that
// network: 100 routers × 296 links × 32 B of table entries, plus the BFS
// scratch, measured 1,002,184 B. A table four times larger fails it, as
// the object count alone would not notice (ROADMAP item 2).
const recomputeBytesBudget = 1_100_000

// TestRecomputeAllocBudget pins Recompute on a 100-router Barabási–Albert
// network at one allocation per router, its table's entry slice, plus a
// constant for the shared adjacency, visited marks and BFS queue (112 in
// all when this was written), and at recomputeBytesBudget bytes. Map-based
// tables cost about 47 allocations per router on this network.
func TestRecomputeAllocBudget(t *testing.T) {
	f := routerNet(t, "ba", 100, 1, 0)
	routers := len(f.RouterOrder())
	allocs := testing.AllocsPerRun(20, f.Dom.Recompute)
	if budget := float64(routers + 16); allocs > budget {
		t.Errorf("Recompute allocates %v objects for %d routers; budget %v", allocs, routers, budget)
	}
	bytes := bytesPerRun(20, f.Dom.Recompute)
	t.Logf("Recompute: %v allocs, %.0f B", allocs, bytes)
	if bytes > recomputeBytesBudget {
		t.Errorf("Recompute allocates %.0f B for %d routers; budget %d B", bytes, routers, recomputeBytesBudget)
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
