//go:build !race

// Allocation budget for SPF set-up. Excluded under -race: the race runtime
// instruments allocations and the counts no longer reflect the production
// build. scripts/check.sh runs it in a separate non-race pass.

package routing_test

import "testing"

// TestRecomputeAllocBudget pins Recompute on a 100-router Barabási–Albert
// network at one allocation per router, its table's entry slice, plus a
// constant for the shared adjacency, visited marks and BFS queue (112 in
// all when this was written). Map-based tables cost about 47 allocations
// per router on this network.
func TestRecomputeAllocBudget(t *testing.T) {
	f := routerNet(t, "ba", 100, 1, 0)
	routers := len(f.RouterOrder())
	allocs := testing.AllocsPerRun(20, f.Dom.Recompute)
	if budget := float64(routers + 16); allocs > budget {
		t.Errorf("Recompute allocates %v objects for %d routers; budget %v", allocs, routers, budget)
	}
}
