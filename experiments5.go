package mip6mcast

import (
	"time"

	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// SMTU — the tunnel MTU problem (extension; the paper's conclusion flags
// "implementation issues, in particular with the proposed uni-directional
// tunnels"). RFC 2473 encapsulation adds 40 bytes, so datagrams within 40
// bytes of the link MTU fit everywhere on the native tree but make the
// *outer* tunnel packet too big: the home agent must fragment it, doubling
// the tunnel's frame count and — under loss — amplifying datagram loss
// (all fragments must survive).

// SMTUPoint is one payload-size sample.
type SMTUPoint struct {
	PayloadBytes int
	// InnerFrame and OuterFrame are the on-wire sizes (before/after
	// encapsulation).
	InnerFrame, OuterFrame int
	// Fragmented reports whether the tunnel leg had to fragment.
	Fragmented bool
	// TunnelFramesPerDgram on the tunnel path.
	TunnelFramesPerDgram float64
	// DeliveryLocal and DeliveryTunnel are delivery ratios under the
	// configured loss for a local receiver and the tunneled receiver.
	DeliveryLocal, DeliveryTunnel float64
}

// runSMTUOne measures one payload size across the tunnel-MTU boundary.
// R3 receives through its home agent on Link 6; R1 receives locally (the
// control). lossRate is applied to every link once R3 has settled.
func runSMTUOne(opt Options, payload int, lossRate float64) SMTUPoint {
	r := NewRun(opt, UniTunnelHAToMN, 100*time.Millisecond, payload)
	f := r.F

	// Count frames on L5 (a tunnel-path link toward L6) that belong to the
	// tunnel flow (fragments or whole tunnel packets).
	tunnelFrames := 0
	f.Links["L5"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == 41 /* IPv6-in-IPv6 */ || ev.Pkt.Fragment() != nil {
			tunnelFrames++
		}
	})

	f.Run(30 * time.Second)
	r.MoveHost("R3", "L6")
	f.Run(20 * time.Second) // registration + membership settle
	if lossRate > 0 {
		for _, l := range f.Links {
			l.LossRate = lossRate
		}
	}
	countStart := f.Sched.Now()
	sentStart := r.CBR.Sent
	f.Run(2 * time.Minute)
	sent := int(r.CBR.Sent - sentStart)

	innerFrame := 48 + payload // IPv6 + UDP headers
	outerFrame := innerFrame + 40
	point := SMTUPoint{
		PayloadBytes: payload,
		InnerFrame:   innerFrame,
		OuterFrame:   outerFrame,
		Fragmented:   opt.LinkMTU > 0 && outerFrame > opt.LinkMTU,
	}
	if sent > 0 {
		point.TunnelFramesPerDgram = float64(tunnelFrames) / float64(sent)
		point.DeliveryTunnel = float64(r.Probes["R3"].CountBetween(countStart, sim.Time(1<<62))) / float64(sent)
		point.DeliveryLocal = float64(r.Probes["R1"].CountBetween(countStart, sim.Time(1<<62))) / float64(sent)
	}
	return point
}
