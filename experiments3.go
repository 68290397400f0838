package mip6mcast

import (
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// SMG — multi-group scaling (an extension the paper implies): one mobile
// receiver subscribed to G groups through its home agent. Measures how the
// extended Binding Update grows (the Figure 5 sub-option carries at most
// 15 groups; longer lists split across sub-options), and how the home
// agent's tunneling load scales with G.

// SMGPoint is one multi-group sample.
type SMGPoint struct {
	Groups int
	// MaxBUBytes is the largest Binding Update observed on the wire.
	MaxBUBytes int
	// SubOptions carried by that Binding Update.
	SubOptions int
	// HATunneledPerSec: datagrams/s the home agent pushes into the tunnel
	// in steady state.
	HATunneledPerSec float64
	// JoinDelays (seconds) across all groups after the move.
	JoinDelays metrics.Histogram
	// Delivered datagrams across all groups after the move.
	Delivered int
}

// MultiGroupAddr returns the i-th experiment group (ff0e::200+i).
func MultiGroupAddr(i int) ipv6.Addr {
	g := ipv6.MustParseAddr("ff0e::200")
	g[14] = byte((0x200 + i) >> 8)
	g[15] = byte(0x200 + i)
	return g
}

// runSMGOne measures multi-group scaling at one group count. The mobile
// receiver R3 subscribes to all groups (under a home-tunnel approach,
// through the Group List mechanism) and moves to Link 6; a sender on
// Link 1 cycles one datagram per interval across the groups.
func runSMGOne(opt Options, nGroups int, approach Approach) SMGPoint {
	opt = approachOptions(opt, approach)
	f := scenario.NewFigure1(opt)
	groups := make([]ipv6.Addr, nGroups)
	for i := range groups {
		groups[i] = MultiGroupAddr(i)
	}

	// R3 subscribes to everything.
	r3 := f.Hosts["R3"]
	svc := core.NewService(r3.MN, r3.MLD, approach, opt.MLD)
	for _, g := range groups {
		svc.Join(g)
	}
	// Sender S cycles across groups, one datagram per 20 ms.
	s := f.Hosts["S"]
	sSvc := core.NewService(s.MN, s.MLD, LocalMembership, opt.MLD)
	seq := 0
	sim.NewTicker(f.Sched, 20*time.Millisecond, 0, func() {
		seq++
		b := scenario.Beacon{Flow: uint16(seq % nGroups), Seq: uint64(seq), SentAt: f.Sched.Now()}
		sSvc.Send(groups[seq%nGroups], b.Marshal(64))
	})

	// Observe Binding Updates on the wire.
	maxBU, subOpts := 0, 0
	for _, l := range f.Links {
		l.AddTap(func(ev netem.TxEvent) {
			opt, ok := ipv6.FindOption(ev.Pkt.DestOpts(), ipv6.OptBindingUpdate)
			if !ok {
				return
			}
			if len(ev.Frame) > maxBU {
				maxBU = len(ev.Frame)
				subOpts = countGroupListSubOptions(opt)
			}
		})
	}

	// Per-group delivery probe.
	firstAfter := map[ipv6.Addr]sim.Time{}
	delivered := 0
	var moveAt sim.Time
	moved := false
	r3.Node.BindUDP(scenario.WorkloadPort, func(rx netem.RxPacket, u ipv6.UDP) {
		if !moved {
			return
		}
		delivered++
		g := rx.Pkt.Hdr.Dst
		if _, ok := firstAfter[g]; !ok {
			firstAfter[g] = f.Sched.Now()
		}
	})

	f.Run(30 * time.Second)
	moveAt = f.Sched.Now()
	moved = true
	f.Move("R3", "L6")
	f.Run(120 * time.Second)

	p := SMGPoint{Groups: nGroups, MaxBUBytes: maxBU, SubOptions: subOpts, Delivered: delivered}
	for _, g := range groups {
		if at, ok := firstAfter[g]; ok {
			p.JoinDelays.Add(at.Sub(moveAt).Seconds())
		}
	}
	ha := f.HomeAgentOf("R3")
	p.HATunneledPerSec = float64(ha.MulticastTunneled) / 120
	return p
}

func countGroupListSubOptions(opt ipv6.Option) int {
	if len(opt.Data) < 8 {
		return 0
	}
	n := 0
	subs := opt.Data[8:]
	for len(subs) >= 2 {
		if subs[0] == ipv6.SubOptMulticastGroupList {
			n++
		}
		l := int(subs[1])
		if 2+l > len(subs) {
			break
		}
		subs = subs[2+l:]
	}
	return n
}
