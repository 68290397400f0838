package mip6mcast

import (
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// Experiment IDs (see DESIGN.md §4) with their paper artifacts:
//
//	F1   — Figure 1: initial distribution tree
//	F2   — Figure 2: mobile receiver, local membership on foreign link
//	F3   — Figure 3: mobile receiver, membership via home agent tunnel
//	F4   — Figure 4: mobile sender, reverse tunnel (vs local sending)
//	T1   — Table 1 / §4.3: the four approaches compared
//	S44  — §4.4: MLD timer optimization sweep
//	S431 — §4.3.1: mobile-sender flood/assert overhead
//	S432 — §4.3.2: tunnel convergence (N receivers on one foreign link)

// F1Result captures the converged Figure 1 tree.
type F1Result struct {
	// DataBytesPerLink is multicast data carried per link over the run.
	DataBytesPerLink map[string]uint64
	// FloodFramesL5 counts data frames on the pruned branch (only the
	// pre-prune flood should appear).
	FloodFramesL5 int
	FramesL6      int
	// TreeAtD is router D's converged (S,G) view.
	TreeAtD []engine.SGInfo
	// Delivered counts datagrams per receiver; Sent is the CBR total.
	Delivered map[string]int
	Sent      uint64
}

// measureF1 reproduces Figure 1: all hosts at home, S streaming to the
// group; PIM-DM floods, prunes Links 5/6, and settles on the L1–L4 tree.
func measureF1(opt Options, approach Approach) F1Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	l5 := r.WatchLink("L5")
	l6 := r.WatchLink("L6")
	for _, n := range scenario.LinkNames() {
		r.WatchLink(n)
	}
	r.F.Run(60 * time.Second)

	res := F1Result{
		DataBytesPerLink: map[string]uint64{},
		FloodFramesL5:    l5.Frames,
		FramesL6:         l6.Frames,
		TreeAtD:          r.F.Routers["D"].Engine.Entries(),
		Delivered:        map[string]int{},
		Sent:             r.CBR.Sent,
	}
	for _, n := range scenario.LinkNames() {
		res.DataBytesPerLink[n] = r.WatchLink(n).Bytes
	}
	for name, p := range r.Probes {
		res.Delivered[name] = p.Count()
	}
	return res
}

// F2Result quantifies the paper's Figure 2 discussion.
type F2Result struct {
	// JoinDelay is how long after attaching to Link 6 the receiver got its
	// next datagram.
	JoinDelay time.Duration
	Rejoined  bool
	// LeaveDelay is how long Router D kept forwarding onto Link 4 after
	// the receiver left (bounded by T_MLI = 260 s with defaults).
	LeaveDelay time.Duration
	// WastedBytes is multicast data transmitted onto Link 4 during the
	// leave delay (the paper's bandwidth-consumption criterion).
	WastedBytes uint64
	// Delivered on L6 after the move.
	DeliveredAfterMove int
}

// measureF2 reproduces Figure 2: Receiver 3 moves from Link 4 to the
// pruned Link 6. unsolicitedReports selects the paper's recommended
// optimization; with it off the receiver waits for the next MLD Query.
func measureF2(opt Options, unsolicitedReports bool, approach Approach) F2Result {
	opt.ResendOnMove = unsolicitedReports
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	l4 := r.WatchLink("L4")
	// Run past the MLD startup-query phase so the no-unsolicited join path
	// waits for a regular periodic Query, as the paper's analysis assumes.
	r.F.Run(60 * time.Second)

	moveAt := r.MoveHost("R3", "L6")
	// Run past T_MLI plus slack so the leave delay completes, and past a
	// full query interval for the no-unsolicited join path.
	horizon := opt.MLD.ListenerInterval() + opt.MLD.QueryInterval + 60*time.Second
	r.F.Run(horizon)

	res := F2Result{}
	if d, ok := r.JoinDelay("R3", moveAt); ok {
		res.JoinDelay = d
		res.Rejoined = true
	}
	if l4.Last > moveAt {
		res.LeaveDelay = l4.Last.Sub(moveAt)
	}
	// Wasted bytes: data on L4 after the move (R3 was its only member).
	res.WastedBytes = l4.BytesAfter(moveAt)
	res.DeliveredAfterMove = r.Probes["R3"].CountBetween(moveAt, sim.Time(1<<62))
	return res
}

// F3Result quantifies Figure 3.
type F3Result struct {
	// JoinDelay after the move (should be ≈ binding registration, far
	// below the MLD-driven delays of F2).
	JoinDelay time.Duration
	Rejoined  bool
	// TunnelOverheadBytes across all links (encapsulation headers).
	TunnelOverheadBytes uint64
	// MeanHops the delivered datagrams traveled after the move, vs the
	// unicast-optimal router count from the sender's link.
	MeanHops    float64
	OptimalHops int
	// HATunneled counts datagrams the home agent put into the tunnel.
	HATunneled uint64
}

// measureF3 reproduces Figure 3: Receiver 3 moves from Link 4 to Link 1
// and, under a home-tunnel approach, receives through its home agent
// (Router D); the approach's variant selects the paper's §4.3.2 signaling
// mechanism. Under the proxy hierarchy the tunnel metrics read zero.
func measureF3(opt Options, approach Approach) F3Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	r.F.Run(30 * time.Second)

	moveAt := r.MoveHost("R3", "L1")
	r.F.Run(120 * time.Second)

	res := F3Result{OptimalHops: r.OptimalRouterHops("L1", "L1")}
	if d, ok := r.JoinDelay("R3", moveAt); ok {
		res.JoinDelay = d
		res.Rejoined = true
	}
	res.TunnelOverheadBytes = r.F.Acct.TotalBytes(metrics.ClassTunnel)
	res.MeanHops = r.Probes["R3"].MeanHops(moveAt+sim.Time(20*time.Second), sim.Time(1<<62))
	ha := r.F.HomeAgentOf("R3")
	res.HATunneled = ha.MulticastTunneled
	return res
}

// F4Result quantifies Figure 4 and its contrast with local sending.
type F4Result struct {
	// MaxGapAfterMove is the worst delivery interruption any static
	// receiver saw around the sender's move.
	MaxGapAfterMove time.Duration
	// NewTreesBuilt counts PIM floods started after the move (reverse
	// tunneling keeps the original (S,G); local sending builds a new one).
	NewTreesBuilt uint64
	// PeakSGEntries is the maximum simultaneous (S,G) state across all
	// routers (stale trees linger for the 210 s data timeout).
	PeakSGEntries int
	// AssertsSent across all routers after the move.
	AssertsSent uint64
	// TunnelOverheadBytes spent on the reverse tunnel.
	TunnelOverheadBytes uint64
	// DeliveredAfterMove per receiver.
	DeliveredAfterMove map[string]int
}

// measureF4 reproduces Figure 4: Sender S moves to Link 6. Under
// UniTunnelMNToHA it reverse-tunnels to Router A; under local membership
// (the §4.2.2-A contrast) it sends locally and PIM-DM builds a new tree;
// under the proxy hierarchy it sends from below proxy E, which
// up-forwards to the anchor instead of re-flooding from scratch.
func measureF4(opt Options, approach Approach) F4Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	peak := 0
	sim.NewTicker(r.F.Sched, time.Second, 0, func() {
		if n := r.F.TotalSGEntries(); n > peak {
			peak = n
		}
	})
	r.F.Run(30 * time.Second)

	before := r.F.MulticastStats()
	moveAt := r.MoveHost("S", "L6")
	r.F.Run(120 * time.Second)
	after := r.F.MulticastStats()

	res := F4Result{
		NewTreesBuilt:       after.FloodsStarted - before.FloodsStarted,
		PeakSGEntries:       peak,
		AssertsSent:         after.AssertsSent - before.AssertsSent,
		TunnelOverheadBytes: r.F.Acct.TotalBytes(metrics.ClassTunnel),
		DeliveredAfterMove:  map[string]int{},
	}
	end := moveAt + sim.Time(60*time.Second)
	for name, p := range r.Probes {
		res.DeliveredAfterMove[name] = p.CountBetween(moveAt, end)
		if g := p.MaxGap(moveAt-sim.Time(5*time.Second), end); time.Duration(g) > res.MaxGapAfterMove {
			res.MaxGapAfterMove = time.Duration(g)
		}
	}
	return res
}
