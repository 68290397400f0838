//go:build !race

// Allocation budget for the home agent's multicast tunnel entry. Excluded
// under -race (instrumented allocation counts differ); scripts/check.sh
// runs it in a separate non-race pass.

package mipv6_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

// haTunnelAllocBudget bounds one datagram that crosses a router to a home
// agent, which tunnels it to its one binding three routers away, steady
// state: a multicast datagram its fan-out takes, and a unicast one its
// proxy intercept takes. The home agent allocates the outer packet
// (ipv6.EncapsulateHops) and nothing else: the tunnel carries the packet
// the home agent received, with its hop count, and no router on either leg
// copies anything; measured 1. A copy that carries the hop limit adds 1, a
// forwarding copy per hop 4.
const haTunnelAllocBudget = 1

// floodForwarder is a multicast engine that forwards every datagram onto
// all of its node's other interfaces.
type floodForwarder struct{ node *netem.Node }

func (f floodForwarder) ForwardMulticast(rx netem.RxPacket) {
	if rx.HopLimit() <= 1 {
		return
	}
	for _, ifc := range f.node.Ifaces {
		if ifc != rx.Iface && ifc.Up() {
			_ = ifc.Forward(rx)
		}
	}
}

// TestHATunnelAllocBudget: source S on L0, router R0 between L0 and the
// home link L1, the home agent (a router) between L1 and L2, and routers
// R1–R3 in a chain from L2 to L5, where the care-of node C sits.
func TestHATunnelAllocBudget(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	dom := routing.NewDomain(net)
	const nlinks = 6
	links := make([]*netem.Link, nlinks)
	prefix := func(i int) ipv6.Addr { return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", i)) }
	for i := range links {
		links[i] = net.NewLink(fmt.Sprintf("L%d", i), 0, 0)
		dom.AssignPrefix(links[i], prefix(i))
	}
	router := func(name string, i int) (*netem.Node, *netem.Interface) {
		r := net.NewNode(name, true)
		in := r.AddInterface(links[i])
		in.AddAddr(prefix(i).WithInterfaceID(0x1000 + uint64(i)))
		r.AddInterface(links[i+1]).AddAddr(prefix(i + 1).WithInterfaceID(0x2000 + uint64(i)))
		return r, in
	}
	host := func(name string, i int) (*netem.Node, *netem.Interface, ipv6.Addr) {
		n := net.NewNode(name, false)
		ifc := n.AddInterface(links[i])
		a := prefix(i).WithInterfaceID(0x9)
		ifc.AddAddr(a)
		return n, ifc, a
	}
	r0, r0In := router("R0", 0)
	r0.Forwarder = floodForwarder{r0}
	haNode, homeIfc := router("HA", 1)
	for i := 2; i < nlinks-1; i++ {
		router(fmt.Sprintf("R%d", i-1), i)
	}
	src, srcIfc, srcA := host("S", 0)
	careNode, _, careOf := host("C", nlinks-1)
	dom.Recompute()

	cfg := mipv6.DefaultHAConfig()
	cfg.RequestRefresh = false
	ha := mipv6.NewHomeAgent(haNode, homeIfc, homeIfc.GlobalAddr(), cfg)
	g := ipv6.MustParseAddr("ff0e::7")
	home := prefix(1).WithInterfaceID(0x99)
	ha.ImportBinding(home, careOf, 1, []ipv6.Addr{g}, time.Hour)

	var pkt *ipv6.Packet
	got := 0
	careNode.HandleProto(ipv6.ProtoIPv6, func(rx netem.RxPacket) {
		// The tunnel crossed three routers; it carries the source's own
		// packet, which crossed one router before the home agent.
		if rx.HopLimit() != ipv6.DefaultHopLimit-3 || rx.Pkt.Inner != pkt || rx.Pkt.InnerHops != 1 {
			t.Fatalf("tunnel packet %v (hop limit %d) carries %v with count %d, want the source's packet with count 1",
				rx.Pkt, rx.HopLimit(), rx.Pkt.Inner, rx.Pkt.InnerHops)
		}
		got++
	})
	for _, c := range []struct {
		name string
		dst  ipv6.Addr
	}{{"multicast-fan-out", g}, {"unicast-intercept", home}} {
		t.Run(c.name, func(t *testing.T) {
			pkt = udpPacket(srcA, c.dst, 9, string(make([]byte, 256)))
			got = 0
			send := func() {
				if c.dst.IsMulticast() {
					_ = src.OutputOn(srcIfc, pkt)
				} else {
					_ = srcIfc.SendVia(pkt, r0In.LinkLocal()) // S's first hop is R0
				}
				s.RunFor(time.Millisecond)
			}
			for i := 0; i < 8; i++ {
				send()
			}
			allocs := testing.AllocsPerRun(200, send)
			if got != 8+201 {
				t.Fatalf("delivered %d tunnel packets, want %d", got, 8+201)
			}
			t.Logf("tunneled datagram: %v allocs (budget %d)", allocs, haTunnelAllocBudget)
			if allocs > haTunnelAllocBudget {
				t.Errorf("tunneled datagram allocates %v objects; budget %d (a copy per hop?)", allocs, haTunnelAllocBudget)
			}
		})
	}
}
