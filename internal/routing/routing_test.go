package routing

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// fig1 builds the paper's Figure 1 topology:
//
//	Link1: A (+ hosts)    Link2: A,B    Link3: B,C,D
//	Link4: D              Link5: D,E    Link6: E
func fig1(t *testing.T) (*sim.Scheduler, *netem.Network, *Domain, map[string]*netem.Node, map[string]*netem.Link) {
	t.Helper()
	s := sim.NewScheduler(1)
	net := netem.New(s)
	links := map[string]*netem.Link{}
	for _, n := range []string{"L1", "L2", "L3", "L4", "L5", "L6"} {
		links[n] = net.NewLink(n, 0, time.Millisecond)
	}
	nodes := map[string]*netem.Node{}
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		nodes[n] = net.NewNode(n, true)
	}
	attach := func(router string, link string, addr string) {
		ifc := nodes[router].AddInterface(links[link])
		ifc.AddAddr(ipv6.MustParseAddr(addr))
	}
	attach("A", "L1", "2001:db8:1::a")
	attach("A", "L2", "2001:db8:2::a")
	attach("B", "L2", "2001:db8:2::b")
	attach("B", "L3", "2001:db8:3::b")
	attach("C", "L3", "2001:db8:3::c")
	attach("D", "L3", "2001:db8:3::d")
	attach("D", "L4", "2001:db8:4::d")
	attach("D", "L5", "2001:db8:5::d")
	attach("E", "L5", "2001:db8:5::e")
	attach("E", "L6", "2001:db8:6::e")

	d := NewDomain(net)
	for i, name := range []string{"L1", "L2", "L3", "L4", "L5", "L6"} {
		d.AssignPrefix(links[name], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", i+1)))
	}
	d.Recompute()
	return s, net, d, nodes, links
}

func TestRouterTableDistances(t *testing.T) {
	_, _, d, nodes, _ := fig1(t)
	cases := []struct {
		router string
		dst    string
		hops   int
	}{
		{"A", "2001:db8:1::99", 1}, // A on Link1
		{"A", "2001:db8:3::99", 2}, // A -> L2 -> B -> L3
		{"A", "2001:db8:4::99", 3}, // A -> L2 -> L3 -> D -> L4
		{"A", "2001:db8:6::99", 4}, // A -> L2 -> L3 -> L5 -> L6 via B,D,E
		{"E", "2001:db8:1::99", 4}, // E -> L5 -> L3 -> L2 -> L1
		{"D", "2001:db8:2::99", 2},
		{"C", "2001:db8:6::99", 3}, // C -> L3 -> D -> L5 -> E -> L6
	}
	for _, c := range cases {
		table := d.TableOf(nodes[c.router])
		hops, ok := table.HopsTo(ipv6.MustParseAddr(c.dst))
		if !ok {
			t.Errorf("%s -> %s unreachable", c.router, c.dst)
			continue
		}
		if hops != c.hops {
			t.Errorf("%s -> %s = %d hops, want %d", c.router, c.dst, hops, c.hops)
		}
	}
}

func TestEndToEndForwardingAcrossFigure1(t *testing.T) {
	s, net, d, _, links := fig1(t)
	// Host on Link1 sends unicast to host on Link6: path A-B-D-E.
	h1 := net.NewNode("h1", false)
	h6 := net.NewNode("h6", false)
	i1 := h1.AddInterface(links["L1"])
	i6 := h6.AddInterface(links["L6"])
	a1 := ipv6.MustParseAddr("2001:db8:1::100")
	a6 := ipv6.MustParseAddr("2001:db8:6::100")
	i1.AddAddr(a1)
	i6.AddAddr(a6)
	d.Recompute()

	var gotHL uint8
	h6.BindUDP(7, func(rx netem.RxPacket, u ipv6.UDP) { gotHL = rx.HopLimit() })

	u := &ipv6.UDP{SrcPort: 1, DstPort: 7, Payload: []byte("far")}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: a1, Dst: a6, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(a1, a6),
	}
	if err := h1.Output(pkt); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Path: h1 -> A -> B -> D -> E -> h6: four router hops decrement 64 -> 60.
	if gotHL != 60 {
		t.Fatalf("hop limit at destination = %d, want 60 (A,B,D,E each decrement)", gotHL)
	}
}

func TestHostTableFollowsMovement(t *testing.T) {
	s, net, d, _, links := fig1(t)
	m := net.NewNode("m", false)
	im := m.AddInterface(links["L4"])
	mAddr := ipv6.MustParseAddr("2001:db8:4::42")
	im.AddAddr(mAddr)

	peer := net.NewNode("peer", false)
	ip := peer.AddInterface(links["L1"])
	pAddr := ipv6.MustParseAddr("2001:db8:1::9")
	ip.AddAddr(pAddr)
	d.Recompute()

	count := 0
	peer.BindUDP(7, func(netem.RxPacket, ipv6.UDP) { count++ })
	send := func(src ipv6.Addr) {
		u := &ipv6.UDP{SrcPort: 1, DstPort: 7, Payload: []byte("x")}
		m.Output(&ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: pAddr, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(src, pAddr),
		})
	}
	send(mAddr)
	s.Run()
	if count != 1 {
		t.Fatalf("before move: delivered %d", count)
	}
	// Move to Link6 and send from a new care-of address.
	net.Move(im, links["L6"])
	coa := ipv6.MustParseAddr("2001:db8:6::42")
	im.AddAddr(coa)
	send(coa)
	s.Run()
	if count != 2 {
		t.Fatalf("after move: delivered %d, want 2 (host default route must follow)", count)
	}
}

func TestRPFInterface(t *testing.T) {
	_, _, d, nodes, links := fig1(t)
	// From D, the RPF interface toward a source on Link1 is D's Link3
	// interface, with B as upstream neighbor.
	table := d.TableOf(nodes["D"])
	ifc, via, ok := table.RPFInterface(ipv6.MustParseAddr("2001:db8:1::10"))
	if !ok {
		t.Fatal("unreachable")
	}
	if ifc.Link != links["L3"] {
		t.Fatalf("RPF iface on %s, want L3", ifc.Link.Name)
	}
	var bIfc *netem.Interface
	for _, x := range links["L3"].Ifaces {
		if x.Node == nodes["B"] {
			bIfc = x
		}
	}
	if via != bIfc.LinkLocal() {
		t.Fatalf("RPF neighbor = %s, want B's link-local %s", via, bIfc.LinkLocal())
	}
	// Directly attached source: no upstream neighbor.
	ifc, via, ok = table.RPFInterface(ipv6.MustParseAddr("2001:db8:4::10"))
	if !ok || ifc.Link != links["L4"] || !via.IsUnspecified() {
		t.Fatalf("direct RPF = %v via %s", ifc, via)
	}
}

func TestUnknownPrefixUnroutable(t *testing.T) {
	_, _, d, nodes, _ := fig1(t)
	table := d.TableOf(nodes["A"])
	if _, _, ok := table.NextHop(ipv6.MustParseAddr("2001:db9::1")); ok {
		t.Fatal("routed a destination outside all assigned prefixes")
	}
	if _, ok := table.HopsTo(ipv6.MustParseAddr("2001:db9::1")); ok {
		t.Fatal("HopsTo returned ok for unknown prefix")
	}
	if d.LinkFor(ipv6.MustParseAddr("2001:db9::1")) != nil {
		t.Fatal("LinkFor invented a link")
	}
}

func TestLinkForAndPrefixOf(t *testing.T) {
	_, _, d, _, links := fig1(t)
	p, ok := d.PrefixOf(links["L4"])
	if !ok {
		t.Fatal("L4 has no prefix")
	}
	if got := d.LinkFor(p.WithInterfaceID(77)); got != links["L4"] {
		t.Fatalf("LinkFor = %v", got)
	}
}
