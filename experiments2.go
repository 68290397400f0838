package mip6mcast

import (
	"fmt"
	"time"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// T1Row is one approach's measured criteria (the quantified version of the
// paper's §4.3 comparison across its Table 1).
type T1Row struct {
	Approach Approach
	// JoinDelayR3 after the mobile receiver's move.
	JoinDelayR3 time.Duration
	// SenderGap: worst delivery interruption at the static receivers
	// around the mobile sender's move.
	SenderGap time.Duration
	// DataBytes and TunnelBytes over the run (all links).
	DataBytes, TunnelBytes uint64
	// ControlBytes = MLD + PIM + Mobile IPv6 signaling.
	ControlBytes uint64
	// HALoad = packets intercepted + encapsulated + decapsulated at home
	// agents.
	HALoad uint64
	// PeakSG is the maximum simultaneous (S,G) entries over all routers.
	PeakSG int
	// MeanHopsR3 after its move, against OptimalHopsR3 (unicast shortest
	// path from the sender's link to R3's link).
	MeanHopsR3    float64
	OptimalHopsR3 int
	// LossR3: datagrams R3 missed over the whole run.
	LossR3 int
}

// runT1One runs the paper's movement scenario under one approach:
// Receiver 3 moves Link4→Link6 at t=60 s, Sender S moves Link1→Link6 at
// t=180 s, horizon 420 s.
func runT1One(opt Options, approach Approach) T1Row {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	peak := 0
	sim.NewTicker(r.F.Sched, time.Second, 0, func() {
		if n := r.F.TotalSGEntries(); n > peak {
			peak = n
		}
	})
	r.F.Run(60 * time.Second)
	r3move := r.MoveHost("R3", "L6")
	r.F.RunUntil(sim.Time(180 * time.Second))
	smove := r.MoveHost("S", "L6")
	r.F.RunUntil(sim.Time(420 * time.Second))

	row := T1Row{Approach: approach, PeakSG: peak, OptimalHopsR3: r.OptimalRouterHops("L6", "L6")}
	if d, ok := r.JoinDelay("R3", r3move); ok {
		row.JoinDelayR3 = d
	}
	for _, name := range []string{"R1", "R2"} {
		g := time.Duration(r.Probes[name].MaxGap(smove-sim.Time(5*time.Second), smove+sim.Time(90*time.Second)))
		if g > row.SenderGap {
			row.SenderGap = g
		}
	}
	row.DataBytes = r.F.Acct.TotalBytes(metrics.ClassData)
	row.TunnelBytes = r.F.Acct.TotalBytes(metrics.ClassTunnel)
	row.ControlBytes = r.ControlBytes()
	row.HALoad = r.HALoad()
	// After both moves, S is on L6 and R3 is on L6.
	row.MeanHopsR3 = r.Probes["R3"].MeanHops(smove+sim.Time(60*time.Second), sim.Time(1<<62))
	row.LossR3 = int(r.CBR.Sent) - r.Probes["R3"].Count()
	return row
}

// measureS44One runs one §4.4 timeline: opt's MLD timers are already set
// for the swept point; the receiver moves to a memberless link at t=40 s.
func measureS44One(opt Options) (join, leave time.Duration, waste uint64, mldPerHour float64) {
	r := NewRun(opt, LocalMembership, 100*time.Millisecond, 64)
	l4 := r.WatchLink("L4")
	r.F.Run(40 * time.Second)
	moveAt := r.MoveHost("R3", "L6")
	horizon := opt.MLD.ListenerInterval() + opt.MLD.QueryInterval + 60*time.Second
	r.F.Run(horizon)

	if d, ok := r.JoinDelay("R3", moveAt); ok {
		join = d
	}
	if l4.Last > moveAt {
		leave = l4.Last.Sub(moveAt)
	}
	waste = l4.BytesAfter(moveAt)
	elapsed := r.F.Sched.Now().Seconds()
	mldPerHour = float64(r.F.Acct.TotalBytes(metrics.ClassMLD)) * 3600 / elapsed
	return join, leave, waste, mldPerHour
}

// S431Result measures the cost of a locally-sending mobile sender.
type S431Result struct {
	Moves int
	// RefloodBytes: data bytes on links outside the receiver tree
	// (L5+L6 while no member is there) — the per-move flood waste.
	RefloodBytes uint64
	// Asserts triggered by stale source addressing.
	Asserts uint64
	// PeakSG entries (stale trees held for the 210 s data timeout).
	PeakSG int
	// NewTrees built (floods started) after the first.
	NewTrees uint64
}

// measureS431 moves the sender repeatedly across on-tree links while it
// keeps sending locally (approach A), reproducing §4.3.1's overhead
// analysis: every move builds a new source-rooted tree, floods, and the
// stale-source window triggers assert processes.
func measureS431(opt Options, moves int, dwell time.Duration) S431Result {
	// Movement detection takes as long as router advertisements are apart;
	// the paper's assert analysis assumes a non-negligible window in which
	// the sender still uses its stale source address. Model the era's RA
	// cadence (seconds) and a denser packet stream.
	opt.NDP.AdvInterval = 3 * time.Second
	opt.NDP.AdvJitter = time.Second
	opt.NDP.SolicitedDelayMax = 500 * time.Millisecond
	r := NewRun(opt, LocalMembership, 20*time.Millisecond, 256)
	l5 := r.WatchLink("L5")
	l6 := r.WatchLink("L6")
	peak := 0
	sim.NewTicker(r.F.Sched, time.Second, 0, func() {
		if n := r.F.TotalSGEntries(); n > peak {
			peak = n
		}
	})
	r.F.Run(30 * time.Second)
	base := r.F.MulticastStats()

	// Cycle the sender across links that carry the tree (the paper: moving
	// to Link 2, 3 or 4 makes forwarding routers believe there is a loop).
	cycle := []string{"L4", "L2", "L3", "L1"}
	for i := 0; i < moves; i++ {
		r.MoveHost("S", cycle[i%len(cycle)])
		r.F.Run(dwell)
	}
	after := r.F.MulticastStats()

	return S431Result{
		Moves:        moves,
		RefloodBytes: l5.Bytes + l6.Bytes,
		Asserts:      after.AssertsSent - base.AssertsSent,
		PeakSG:       peak,
		NewTrees:     after.FloodsStarted - base.FloodsStarted,
	}
}

// S432Point compares per-datagram foreign-link bytes for N co-located
// mobile receivers.
type S432Point struct {
	N int
	// ForeignLinkBytesPerDatagram on Link 6: 1 multicast copy under local
	// membership vs N unicast tunnel copies under the bi-directional
	// tunnel (the paper: "the same multicast datagrams will be sent via
	// unicast to each group member on the foreign link").
	LocalBytesPerDgram  float64
	TunnelBytesPerDgram float64
}

// measureS432Point reproduces the §4.3.2 tunnel-convergence observation
// for n co-located receivers.
func measureS432Point(opt Options, n int) S432Point {
	return S432Point{
		N:                   n,
		LocalBytesPerDgram:  runS432One(opt, LocalMembership, n),
		TunnelBytesPerDgram: runS432One(opt, BidirectionalTunnel, n),
	}
}

func runS432One(opt Options, approach Approach, n int) float64 {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	f := r.F
	// n extra mobile receivers, all home on L4, all moving to L6.
	extras := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("M%d", i)
		svc := r.AddMobileReceiver(name, "L4", uint64(0x3000+i))
		svc.Join(scenario.Group)
		extras = append(extras, name)
	}
	l6 := r.WatchLink("L6")
	f.Run(30 * time.Second)
	for i := range extras {
		f.Move(extras[i], "L6")
	}
	f.Run(30 * time.Second) // let registrations/grafts settle
	before := l6.Bytes
	beforeSent := r.CBR.Sent
	f.Run(120 * time.Second)
	dgrams := r.CBR.Sent - beforeSent
	if dgrams == 0 {
		return 0
	}
	return float64(l6.Bytes-before) / float64(dgrams)
}
