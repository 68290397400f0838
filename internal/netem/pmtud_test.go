package netem

import (
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// pmtudTopo: a --(wide L1)-- r --(narrow L2, MTU 1280)-- b
func pmtudTopo(seed int64) (*sim.Scheduler, *Network, *Node, *Node, *Node) {
	s := sim.NewScheduler(seed)
	net := New(s)
	l1 := net.NewLink("wide", 0, time.Millisecond) // unlimited
	l2 := net.NewLink("narrow", 0, time.Millisecond)
	l2.MTU = 1280
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l1)
	ir1 := r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:2::b")
	ia.AddAddr(aA)
	ir1.AddAddr(ipv6.MustParseAddr("2001:db8:1::1"))
	ir2.AddAddr(ipv6.MustParseAddr("2001:db8:2::1"))
	ib.AddAddr(bA)
	r.Routes = &twoWayRoutes{l1: l1, l2: l2, r: r}
	a.Routes = staticRoutes{out: ia, via: ir1.LinkLocal()}
	return s, net, a, r, b
}

// twoWayRoutes routes by destination prefix between the two links.
type twoWayRoutes struct {
	l1, l2 *Link
	r      *Node
}

func (t *twoWayRoutes) NextHop(dst ipv6.Addr) (*Interface, ipv6.Addr, bool) {
	var want *Link
	switch {
	case dst.MatchesPrefix(ipv6.MustParseAddr("2001:db8:1::"), 64):
		want = t.l1
	case dst.MatchesPrefix(ipv6.MustParseAddr("2001:db8:2::"), 64):
		want = t.l2
	default:
		return nil, ipv6.Addr{}, false
	}
	for _, ifc := range t.r.Ifaces {
		if ifc.Link == want {
			return ifc, dst, true
		}
	}
	return nil, ipv6.Addr{}, false
}

func TestPathMTUDiscovery(t *testing.T) {
	s, _, a, r, b := pmtudTopo(1)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:2::b")

	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })

	// First big datagram: the wide link passes it whole, the router drops
	// it at the narrow link and reports Packet Too Big.
	send := func() { _ = a.Output(bigUDP(aA, bA, 9, 2000).Clone()) }
	send()
	s.Run()
	if got != 0 {
		t.Fatal("first too-big datagram delivered somehow")
	}
	if r.PacketTooBigSent != 1 {
		t.Fatalf("router sent %d PTBs", r.PacketTooBigSent)
	}
	if a.PathMTU(bA) != 1280 {
		t.Fatalf("source learned path MTU %d, want 1280", a.PathMTU(bA))
	}

	// Second attempt: the source fragments to the learned path MTU even
	// though its own link is wider; the router forwards the fragments.
	send()
	s.Run()
	if got != 1 {
		t.Fatalf("delivered %d after PMTUD, want 1", got)
	}
	if r.Drops["too-big"] != 1 {
		t.Fatalf("router drops = %v, want only the first", r.Drops)
	}
}

func TestPathMTUOnlyShrinks(t *testing.T) {
	_, _, a, _, _ := pmtudTopo(2)
	bA := ipv6.MustParseAddr("2001:db8:2::b")
	a.pathMTU = map[ipv6.Addr]int{bA: 1300}
	// A larger advertised MTU must not raise the cache; a smaller one
	// lowers it; below-minimum clamps to 1280.
	mk := func(mtu uint32) RxPacket {
		inv, _ := bigUDP(ipv6.MustParseAddr("2001:db8:1::a"), bA, 9, 100).Encode()
		src := ipv6.MustParseAddr("2001:db8:2::1")
		dst := ipv6.MustParseAddr("2001:db8:1::a")
		ptb := &icmpv6.PacketTooBig{MTU: mtu, Invoking: inv}
		return RxPacket{Pkt: &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
			Proto:   ipv6.ProtoICMPv6,
			Payload: icmpv6.Marshal(src, dst, ptb),
		}}
	}
	a.handlePacketTooBig(mk(1400))
	if a.pathMTU[bA] != 1300 {
		t.Fatalf("cache raised to %d", a.pathMTU[bA])
	}
	a.handlePacketTooBig(mk(1290))
	if a.pathMTU[bA] != 1290 {
		t.Fatalf("cache = %d, want 1290", a.pathMTU[bA])
	}
	a.handlePacketTooBig(mk(100))
	if a.pathMTU[bA] != 1280 {
		t.Fatalf("cache = %d, want clamp to IPv6 minimum 1280", a.pathMTU[bA])
	}
}
