package netem

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

func TestLookupHelpers(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	l := net.NewLink("alpha", 0, 0)
	n := net.NewNode("beta", false)
	n.AddInterface(l)

	if net.LinkByName("alpha") != l || net.LinkByName("nope") != nil {
		t.Error("LinkByName wrong")
	}
	if net.NodeByName("beta") != n || net.NodeByName("nope") != nil {
		t.Error("NodeByName wrong")
	}
	if !strings.Contains(net.String(), "1 nodes") || !strings.Contains(net.String(), "1 links") {
		t.Errorf("network String() = %q", net.String())
	}
	if n.String() != "beta" {
		t.Errorf("node String() = %q", n.String())
	}
	if !strings.Contains(n.Ifaces[0].String(), "beta") || !strings.Contains(n.Ifaces[0].String(), "alpha") {
		t.Errorf("iface String() = %q", n.Ifaces[0].String())
	}
	l.detach(n.Ifaces[0])
	if !strings.Contains(n.Ifaces[0].String(), "detached") {
		t.Errorf("detached iface String() = %q", n.Ifaces[0].String())
	}
}

func TestLogicalAddresses(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	l := net.NewLink("l", 0, 0)
	n := net.NewNode("n", false)
	ifc := n.AddInterface(l)
	a := ipv6.MustParseAddr("2001:db8:1::42")

	if n.HasAddr(a) {
		t.Fatal("unowned address claimed")
	}
	n.AddLogicalAddr(a)
	if !n.HasAddr(a) {
		t.Fatal("logical address not accepted")
	}
	// Logical addresses never answer on-link resolution.
	if l.Resolve(a) != nil {
		t.Fatal("logical address resolved on-link")
	}
	if ifc.HasAddr(a) {
		t.Fatal("logical address leaked into interface ownership")
	}
	n.RemoveLogicalAddr(a)
	if n.HasAddr(a) {
		t.Fatal("logical address survived removal")
	}
}

func TestRoutingHeaderForwardedWhenNotOurs(t *testing.T) {
	// A routing-header packet whose next segment is NOT ours must be
	// re-emitted toward that segment (intermediate-hop behavior).
	s := sim.NewScheduler(1)
	net := New(s)
	l := net.NewLink("l", 0, time.Millisecond)
	a := net.NewNode("a", false)
	mid := net.NewNode("mid", false)
	c := net.NewNode("c", false)
	ia := a.AddInterface(l)
	im := mid.AddInterface(l)
	ic := c.AddInterface(l)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	mA := ipv6.MustParseAddr("2001:db8:1::b")
	cA := ipv6.MustParseAddr("2001:db8:1::c")
	ia.AddAddr(aA)
	im.AddAddr(mA)
	ic.AddAddr(cA)

	got := 0
	var hops uint8
	c.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
		got++
		hops = rx.HopLimit()
		if rx.Pkt.Hdr.Dst != cA || rx.Pkt.Routing().SegmentsLeft != 0 {
			t.Errorf("final hop state wrong: dst=%s segl=%d", rx.Pkt.Hdr.Dst, rx.Pkt.Routing().SegmentsLeft)
		}
	})

	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: []byte("segmented")}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: aA, Dst: mA, HopLimit: 64},
		Ext:     &ipv6.Ext{Routing: &ipv6.RoutingHeader{SegmentsLeft: 1, Addresses: []ipv6.Addr{cA}}},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(aA, cA), // checksum is computed against the FINAL dst
	}
	_ = a.OutputOn(ia, pkt)
	s.Run()
	if got != 1 {
		t.Fatalf("delivered %d through segment routing", got)
	}
	if hops != 63 {
		t.Fatalf("hop limit %d at final hop, want 63 (mid decrements)", hops)
	}
}
