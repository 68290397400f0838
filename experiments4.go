package mip6mcast

import (
	"fmt"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// SLD — scaling with line depth (extension): the paper's Figure 1 network
// fixes all distances; a chain of d routers lets the two receive modes be
// compared as a function of how far the receiver roams from home:
//
//   - local membership: the graft must propagate back along the chain,
//     and routing stays optimal (path length = distance from the source);
//   - home-agent tunnel: join delay stays flat (one registration RTT),
//     but every datagram detours via the home link — stretch grows
//     linearly with depth.

// SLDPoint is one depth sample for one receive mode.
type SLDPoint struct {
	Depth       int
	Tunnel      bool
	JoinDelay   time.Duration
	MeanHops    float64
	OptimalHops int
	// TunnelBytesPerDgram of encapsulation overhead (0 for local).
	TunnelBytesPerDgram float64
}

// runSLDOne measures one receive mode at one depth on topo.Line(depth).
// The sender and the receiver's home are on link 0; the receiver roams to
// the far end.
func runSLDOne(opt Options, depth int, tunnel bool) SLDPoint {
	approach := LocalMembership
	if tunnel {
		approach = UniTunnelHAToMN
	}
	opt = approachOptions(opt, approach)
	f := scenario.Build(topo.Line(depth), opt)

	// Sender and the mobile receiver's home on link 0.
	f.AddHost("src", "K0", 0x9001)
	m := f.AddHost("m", "K0", 0x9002)
	svc := core.NewService(m.MN, m.MLD, approach)
	svc.Join(scenario.Group)

	probe := metrics.NewFlowProbe("m")
	scenario.AttachProbe(m.Node, f.Sched, 1, probe, m.OuterHops)

	scenario.NewCBR(f.Sched, 1, 100*time.Millisecond, 64, func(p []byte) {
		f.SendLocalMulticast("src", scenario.Group, p)
	})

	f.Run(20 * time.Second)
	moveAt := f.Sched.Now()
	f.Move("m", fmt.Sprintf("K%d", depth))
	// Snapshot the accountant's tunnel bytes once the post-move state
	// settles, so the per-datagram figure covers only steady-state
	// deliveries.
	var tunnelAtSettle uint64
	settled := moveAt + sim.Time(20*time.Second)
	f.At(settled, func() { tunnelAtSettle = f.Acct.TotalBytes(metrics.ClassTunnel) })
	f.Run(60 * time.Second)

	p := SLDPoint{Depth: depth, Tunnel: tunnel, OptimalHops: depth}
	if d, ok := probe.FirstAfter(moveAt); ok {
		p.JoinDelay = d.At.Sub(moveAt)
	}
	p.MeanHops = probe.MeanHops(settled, sim.Time(1<<62))
	if n := probe.CountBetween(settled, sim.Time(1<<62)); n > 0 {
		p.TunnelBytesPerDgram = float64(f.Acct.TotalBytes(metrics.ClassTunnel)-tunnelAtSettle) / float64(n)
	}
	return p
}
