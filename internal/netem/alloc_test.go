//go:build !race

// Allocation budget for the link data plane's fan-out path. Excluded under
// -race (instrumented allocation counts differ); scripts/check.sh runs these
// in a separate non-race pass.

package netem

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// fanoutAllocBudget bounds one multicast transmission delivered to 16
// receivers, steady state. The link's decode returns the sent packet
// itself, delivery events are typed and pooled and the UDP view is a
// value, so nothing is allocated. Measured 0; a decoded Packet per
// transmission adds 1, a delivery closure or a heap UDP view per receiver
// 16, a per-receiver decode far more.
const fanoutAllocBudget = 0

func TestFanoutDeliveryAllocBudget(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Microsecond)
	src := net.NewNode("src", false)
	isrc := src.AddInterface(link)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	g := ipv6.MustParseAddr("ff0e::7")
	const members = 16
	got := 0
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
	// Warm the frame-buffer and event pools.
	for i := 0; i < 8; i++ {
		_ = src.OutputOn(isrc, pkt)
		s.Run()
	}
	rounds := 0
	allocs := testing.AllocsPerRun(200, func() {
		_ = src.OutputOn(isrc, pkt)
		s.Run()
		rounds++
	})
	if want := (rounds + 8) * members; got != want {
		t.Fatalf("delivered %d datagrams, want %d", got, want)
	}
	t.Logf("fan-out round: %v allocs (budget %d)", allocs, fanoutAllocBudget)
	if allocs > fanoutAllocBudget {
		t.Errorf("fan-out round allocates %v objects; budget %d (per-receiver decode regression?)", allocs, fanoutAllocBudget)
	}
}

// forwardAllocBudget bounds one unicast datagram sent by a host and
// forwarded by one router, steady state. The router sends on the packet it
// received, its hop count beside it, each link's decode is the packet it
// was sent, no payload is copied, and delivery events and the
// destination's UDP view allocate nothing; measured 0. A forwarding copy,
// a decoded Packet per link, a payload copy on either link or a delivery
// closure breaks it (the data plane that cloned and copied cost 10, the
// one with closures 5, the one with a decoded Packet per link 2, the one
// with a heap forwarding copy per hop 1).
const forwardAllocBudget = 0

func TestForwardAllocBudget(t *testing.T) {
	run, ia, ir1, b, aA, bA := forwardingNet()
	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	pkt := udpTo(aA, bA, 9, string(make([]byte, 256)))
	for i := 0; i < 8; i++ {
		_ = ia.SendVia(pkt, ir1.LinkLocal())
		run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = ia.SendVia(pkt, ir1.LinkLocal())
		run()
	})
	if got != 8+201 {
		t.Fatalf("delivered %d datagrams, want %d", got, 8+201)
	}
	t.Logf("forwarded datagram: %v allocs (budget %d)", allocs, forwardAllocBudget)
	if allocs > forwardAllocBudget {
		t.Errorf("forwarded datagram allocates %v objects; budget %d (decoded Packet or payload copy per link?)", allocs, forwardAllocBudget)
	}
}

// chainAllocBudget bounds one unicast datagram a host sends across three
// routers to another host, steady state: every router sends on the packet
// it received, so a hop costs nothing; measured 0. A forwarding copy per
// hop adds 3.
const chainAllocBudget = 0

func TestRouterChainAllocBudget(t *testing.T) {
	s, net := testNet()
	const routers = 3
	links := make([]*Link, routers+1)
	for i := range links {
		links[i] = net.NewLink(fmt.Sprintf("l%d", i), 0, 0)
	}
	addr := func(link, host int) ipv6.Addr {
		return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::%d", link+1, host))
	}
	a, b := net.NewNode("a", false), net.NewNode("b", false)
	ia := a.AddInterface(links[0])
	ia.AddAddr(addr(0, 0xa))
	b.AddInterface(links[routers]).AddAddr(addr(routers, 0xb))
	dst := addr(routers, 0xb)
	for i := 0; i < routers; i++ {
		r := net.NewNode(fmt.Sprintf("r%d", i), true)
		r.AddInterface(links[i]).AddAddr(addr(i, 1))
		out := r.AddInterface(links[i+1])
		out.AddAddr(addr(i+1, 2))
		via := dst
		if i < routers-1 {
			via = addr(i+1, 1) // the next router's address on that link
		}
		r.Routes = staticRoutes{out: out, via: via}
	}
	pkt := udpTo(addr(0, 0xa), dst, 9, string(make([]byte, 256)))
	got := 0
	b.BindUDP(9, func(rx RxPacket, _ ipv6.UDP) {
		if rx.Pkt != pkt || rx.Hops != routers || rx.HopLimit() != 64-routers {
			t.Fatalf("got %p with %d hops, hop limit %d; want the origin's %p, %d hops, hop limit %d",
				rx.Pkt, rx.Hops, rx.HopLimit(), pkt, routers, 64-routers)
		}
		got++
	})
	first := addr(0, 1)
	send := func() {
		_ = ia.SendVia(pkt, first)
		s.Run()
	}
	for i := 0; i < 8; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if got != 8+201 {
		t.Fatalf("delivered %d datagrams, want %d", got, 8+201)
	}
	t.Logf("datagram across %d routers: %v allocs (budget %d)", routers, allocs, chainAllocBudget)
	if allocs > chainAllocBudget {
		t.Errorf("datagram across %d routers allocates %v objects; budget %d (a copy per hop?)", routers, allocs, chainAllocBudget)
	}
}
