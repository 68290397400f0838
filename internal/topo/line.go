package topo

import "fmt"

// Line builds a chain of n routers: K0 [R0] K1 [R1] ... [Rn-1] Kn. Every
// link is a LAN; router Ri attaches Ki then Ki+1. R0 is home agent for
// K0 and R(i-1) for every other Ki, so a host homed on K0 and moved to
// Kd is d router hops from its home agent — the depth-scaling shape of
// the sld experiment.
func Line(n int) *Graph {
	if n < 1 {
		panic("topo: Line needs at least one router")
	}
	g := &Graph{Name: fmt.Sprintf("line%d", n)}
	for i := 0; i <= n; i++ {
		g.Links = append(g.Links, Link{Name: fmt.Sprintf("K%d", i), LAN: true})
		g.HomeAgent = append(g.HomeAgent, max(i-1, 0))
	}
	for i := 0; i < n; i++ {
		g.Routers = append(g.Routers, Router{Name: fmt.Sprintf("R%d", i), Links: []int{i, i + 1}})
	}
	return g
}
