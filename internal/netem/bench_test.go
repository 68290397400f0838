package netem

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// BenchmarkLinkDelivery measures the raw frame pipeline: encode, transmit,
// schedule, decode, dispatch to a UDP handler.
func BenchmarkLinkDelivery(b *testing.B) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Microsecond)
	a := net.NewNode("a", false)
	c := net.NewNode("c", false)
	ia := a.AddInterface(link)
	ic := c.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	cA := ipv6.MustParseAddr("2001:db8:1::c")
	ia.AddAddr(aA)
	ic.AddAddr(cA)
	got := 0
	c.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 512)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: aA, Dst: cA, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(aA, cA),
	}
	b.SetBytes(int64(pkt.WireLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.OutputOn(ia, pkt)
		s.Run()
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkUnicastForward measures one datagram from a host through a
// router to a host: two link transmissions and one forwarding decision,
// with the payload shared end to end.
func BenchmarkUnicastForward(b *testing.B) {
	run, ia, ir1, c, aA, cA := forwardingNet()
	got := 0
	c.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	pkt := udpTo(aA, cA, 9, string(make([]byte, 512)))
	b.SetBytes(int64(pkt.WireLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ia.SendVia(pkt, ir1.LinkLocal())
		run()
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkMulticastFanout measures delivery of one multicast frame to
// many member interfaces.
func BenchmarkMulticastFanout(b *testing.B) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Microsecond)
	src := net.NewNode("src", false)
	isrc := src.AddInterface(link)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	g := ipv6.MustParseAddr("ff0e::7")
	got := 0
	const members = 64
	for i := 0; i < members; i++ {
		m := net.NewNode("m", false)
		im := m.AddInterface(link)
		im.JoinGroup(g)
		m.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	}
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 256)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: sA, Dst: g, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(sA, g),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.OutputOn(isrc, pkt)
		s.Run()
	}
	b.StopTimer()
	if got != b.N*members {
		b.Fatalf("delivered %d of %d", got, b.N*members)
	}
}

// BenchmarkFragmentationPath measures a 4 kB datagram fragmented at the
// source, carried as fragments, and reassembled at the destination.
func BenchmarkFragmentationPath(b *testing.B) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Microsecond)
	link.MTU = 1500
	a := net.NewNode("a", false)
	c := net.NewNode("c", false)
	ia := a.AddInterface(link)
	ic := c.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	cA := ipv6.MustParseAddr("2001:db8:1::c")
	ia.AddAddr(aA)
	ic.AddAddr(cA)
	got := 0
	c.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 4000)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: aA, Dst: cA, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(aA, cA),
	}
	b.SetBytes(int64(pkt.WireLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.OutputOn(ia, pkt)
		s.Run()
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("reassembled %d of %d", got, b.N)
	}
}

// BenchmarkImpairmentFanout pins the cost of the fault-injection hooks on
// the multicast fan-out path. The "off" case (Impair == nil — every
// production run outside the chaos sweep) must match
// BenchmarkMulticastFanout exactly: the hooks are a single untaken
// nil-check branch and the delivery counters are plain integer stores, so
// allocs/op stays identical to the pre-impairment data plane. The "on"
// case shows what a full impairment profile costs when enabled.
func BenchmarkImpairmentFanout(b *testing.B) {
	run := func(b *testing.B, imp *Impairment) {
		s := sim.NewScheduler(1)
		net := New(s)
		link := net.NewLink("l", 0, time.Microsecond)
		link.Impair = imp
		src := net.NewNode("src", false)
		isrc := src.AddInterface(link)
		sA := ipv6.MustParseAddr("2001:db8:1::1")
		isrc.AddAddr(sA)
		g := ipv6.MustParseAddr("ff0e::7")
		got := 0
		const members = 64
		for i := 0; i < members; i++ {
			m := net.NewNode("m", false)
			im := m.AddInterface(link)
			im.JoinGroup(g)
			m.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
		}
		u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 256)}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: sA, Dst: g, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(sA, g),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = src.OutputOn(isrc, pkt)
			s.Run()
		}
		b.StopTimer()
		if imp == nil && got != b.N*members {
			b.Fatalf("delivered %d of %d", got, b.N*members)
		}
		if link.AttemptedDeliveries != link.Delivered+link.LostDeliveries {
			b.Fatalf("accounting identity broken under bench: attempted=%d delivered=%d lost=%d",
				link.AttemptedDeliveries, link.Delivered, link.LostDeliveries)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		run(b, &Impairment{
			Jitter: 5 * time.Microsecond, ReorderProb: 0.1, ReorderDelay: 3 * time.Microsecond,
			DupProb: 0.1, CorruptProb: 0.05, PGB: 0.05, PBG: 0.3, GoodLoss: 0.01, BadLoss: 0.5,
		})
	})
}
