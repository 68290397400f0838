package netem

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

func testNet() (*sim.Scheduler, *Network) {
	s := sim.NewScheduler(1)
	return s, New(s)
}

func udpTo(src, dst ipv6.Addr, port uint16, payload string) *ipv6.Packet {
	u := &ipv6.UDP{SrcPort: 1234, DstPort: port, Payload: []byte(payload)}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
}

func TestOnLinkUnicastDelivery(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, time.Millisecond)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	ib := b.AddInterface(link)
	aAddr := ipv6.MustParseAddr("2001:db8:1::a")
	bAddr := ipv6.MustParseAddr("2001:db8:1::b")
	ia.AddAddr(aAddr)
	ib.AddAddr(bAddr)

	var got string
	var at sim.Time
	b.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
		got = string(u.Payload)
		at = s.Now()
	})
	if err := a.OutputOn(ia, udpTo(aAddr, bAddr, 9, "hi")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != "hi" {
		t.Fatalf("payload = %q", got)
	}
	if at != sim.Time(time.Millisecond) {
		t.Errorf("delivered at %v, want propagation delay 1ms", at)
	}
}

func TestUnicastNotDeliveredToBystander(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	c := net.NewNode("c", false)
	ia := a.AddInterface(link)
	b.AddInterface(link).AddAddr(ipv6.MustParseAddr("2001:db8:1::b"))
	c.AddInterface(link)
	ia.AddAddr(ipv6.MustParseAddr("2001:db8:1::a"))

	cGot := false
	c.BindUDP(9, func(RxPacket, ipv6.UDP) { cGot = true })
	bGot := false
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { bGot = true })

	a.OutputOn(ia, udpTo(ipv6.MustParseAddr("2001:db8:1::a"), ipv6.MustParseAddr("2001:db8:1::b"), 9, "x"))
	s.Run()
	if !bGot {
		t.Error("owner did not receive")
	}
	if cGot {
		t.Error("bystander received L2-unicast frame")
	}
}

func TestMulticastFilterDelivery(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	src := net.NewNode("src", false)
	m1 := net.NewNode("m1", false)
	m2 := net.NewNode("m2", false)
	isrc := src.AddInterface(link)
	i1 := m1.AddInterface(link)
	m2.AddInterface(link)

	g := ipv6.MustParseAddr("ff0e::7")
	i1.JoinGroup(g)

	got1, got2 := 0, 0
	m1.BindUDP(9, func(RxPacket, ipv6.UDP) { got1++ })
	m2.BindUDP(9, func(RxPacket, ipv6.UDP) { got2++ })

	sAddr := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sAddr)
	src.OutputOn(isrc, udpTo(sAddr, g, 9, "m"))
	s.Run()
	if got1 != 1 {
		t.Errorf("member received %d", got1)
	}
	if got2 != 0 {
		t.Errorf("non-member received %d", got2)
	}
}

func TestJoinLeaveGroupRefcount(t *testing.T) {
	_, net := testNet()
	link := net.NewLink("l1", 0, 0)
	n := net.NewNode("n", false)
	ifc := n.AddInterface(link)
	g := ipv6.MustParseAddr("ff0e::7")
	ifc.JoinGroup(g)
	ifc.JoinGroup(g)
	ifc.LeaveGroup(g)
	if !ifc.AcceptsGroup(g) {
		t.Fatal("filter dropped group while one reference remains")
	}
	ifc.LeaveGroup(g)
	if ifc.AcceptsGroup(g) {
		t.Fatal("filter accepts group after all leaves")
	}
	if !ifc.AcceptsGroup(ipv6.AllNodes) {
		t.Fatal("all-nodes must always be accepted")
	}
}

func TestRouterAllMulticast(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	h := net.NewNode("h", false)
	r := net.NewNode("r", true)
	ih := h.AddInterface(link)
	r.AddInterface(link)
	hAddr := ipv6.MustParseAddr("2001:db8:1::1")
	ih.AddAddr(hAddr)

	seen := 0
	r.BindUDP(9, func(RxPacket, ipv6.UDP) { seen++ })
	g := ipv6.MustParseAddr("ff0e::42")
	h.OutputOn(ih, udpTo(hAddr, g, 9, "x"))
	s.Run()
	if seen != 1 {
		t.Fatalf("router saw %d multicast frames, want 1 (all-multicast mode)", seen)
	}
}

func TestProxyResolution(t *testing.T) {
	_, net := testNet()
	link := net.NewLink("l1", 0, 0)
	owner := net.NewNode("owner", false)
	ha := net.NewNode("ha", true)
	io := owner.AddInterface(link)
	iha := ha.AddInterface(link)
	addr := ipv6.MustParseAddr("2001:db8:1::42")
	io.AddAddr(addr)
	iha.AddProxy(addr)

	// Real owner present: wins over proxy.
	if got := link.Resolve(addr); got != io {
		t.Fatalf("Resolve = %v, want owner", got)
	}
	// Owner leaves: proxy takes over.
	net.Move(io, net.NewLink("l2", 0, 0))
	if got := link.Resolve(addr); got != iha {
		t.Fatalf("Resolve after move = %v, want proxy", got)
	}
	iha.RemoveProxy(addr)
	if got := link.Resolve(addr); got != nil {
		t.Fatalf("Resolve after proxy removal = %v, want nil", got)
	}
}

type staticRoutes struct {
	out *Interface
	via ipv6.Addr
}

func (r staticRoutes) NextHop(ipv6.Addr) (*Interface, ipv6.Addr, bool) {
	return r.out, r.via, true
}

// forwardingNet is host a on l1, router r between l1 and l2, host b on l2;
// r routes everything to b.
func forwardingNet() (run func(), ia, ir1 *Interface, b *Node, aA, bA ipv6.Addr) {
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 0)
	l2 := net.NewLink("l2", 0, 0)
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b = net.NewNode("b", false)
	ia = a.AddInterface(l1)
	ir1 = r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	aA = ipv6.MustParseAddr("2001:db8:1::a")
	bA = ipv6.MustParseAddr("2001:db8:2::b")
	ia.AddAddr(aA)
	ir1.AddAddr(ipv6.MustParseAddr("2001:db8:1::1"))
	ir2.AddAddr(ipv6.MustParseAddr("2001:db8:2::1"))
	ib.AddAddr(bA)
	r.Routes = staticRoutes{out: ir2, via: bA}
	return s.Run, ia, ir1, b, aA, bA
}

// A forwarded datagram arrives with its hop limit decremented once and
// carrying the very payload bytes its origin allocated: neither the router
// nor either link's decode copies them, and the origin's packet is left as
// it was.
func TestUnicastForwarding(t *testing.T) {
	run, ia, ir1, b, aA, bA := forwardingNet()
	var gotHL uint8
	var got []byte
	b.BindUDP(9, func(rx RxPacket, u ipv6.UDP) { gotHL, got = rx.HopLimit(), u.Payload })

	pkt := udpTo(aA, bA, 9, "fwd")
	// Host a sends via router (L2 to router's l1 interface).
	ia.SendVia(pkt, ir1.LinkLocal())
	run()
	if gotHL != 63 {
		t.Fatalf("hop limit at destination = %d, want 63 (decremented once)", gotHL)
	}
	if string(got) != "fwd" || &got[0] != &pkt.Payload[ipv6.UDPHeaderLen] {
		t.Errorf("delivered %q as a copy; want the origin's bytes, shared", got)
	}
	if pkt.Hdr.HopLimit != 64 {
		t.Errorf("forwarding changed the origin's packet: hop limit %d", pkt.Hdr.HopLimit)
	}
}

// A tunnel packet crosses a router and is decapsulated without its inner
// packet being encoded or decoded a second time: the inner packet the
// tunnel exit sees is the one the tunnel entry wrapped, here two routers
// from its sender, with that hop count.
func TestTunnelSharesInnerPayload(t *testing.T) {
	run, ia, ir1, b, aA, bA := forwardingNet()
	inner := udpTo(ipv6.MustParseAddr("2001:db8:9::1"), ipv6.MustParseAddr("ff0e::7"), 9, "tunneled")
	outer, err := ipv6.EncapsulateHops(aA, bA, ipv6.DefaultHopLimit, inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got *ipv6.Packet
	var hops uint8
	b.HandleProto(ipv6.ProtoIPv6, func(rx RxPacket) {
		if got, hops, err = ipv6.Decapsulate(rx.Pkt); err != nil {
			t.Error(err)
		}
	})
	if err := ia.SendVia(outer, ir1.LinkLocal()); err != nil {
		t.Fatal(err)
	}
	run()
	if got == nil {
		t.Fatal("tunnel packet not delivered")
	}
	if got != inner || hops != 2 {
		t.Errorf("tunnel exit got %+v with %d hops; want the wrapped packet itself with 2", got, hops)
	}
	if inner.Hdr.HopLimit != ipv6.DefaultHopLimit {
		t.Errorf("the tunnel changed the wrapped packet: hop limit %d", inner.Hdr.HopLimit)
	}
}

func TestForwardingDropsAtHopLimit(t *testing.T) {
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 0)
	l2 := net.NewLink("l2", 0, 0)
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l1)
	ir1 := r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	bA := ipv6.MustParseAddr("2001:db8:2::b")
	ib.AddAddr(bA)
	r.Routes = staticRoutes{out: ir2, via: bA}

	got := false
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got = true })
	pkt := udpTo(ipv6.MustParseAddr("2001:db8:1::a"), bA, 9, "x")
	pkt.Hdr.HopLimit = 1
	ia.SendVia(pkt, ir1.LinkLocal())
	s.Run()
	if got {
		t.Fatal("packet with hop limit 1 was forwarded")
	}
	if r.Drops["hop-limit"] != 1 {
		t.Fatalf("drops = %v", r.Drops)
	}
}

func TestLinkLocalNotForwarded(t *testing.T) {
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 0)
	l2 := net.NewLink("l2", 0, 0)
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l1)
	ir1 := r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	r.Routes = staticRoutes{out: ir2, via: ib.LinkLocal()}

	got := false
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got = true })
	src := ipv6.MustParseAddr("2001:db8:1::a")
	pkt := udpTo(src, ib.LinkLocal(), 9, "x")
	ia.SendVia(pkt, ir1.LinkLocal())
	s.Run()
	if got {
		t.Fatal("link-local destination forwarded off-link")
	}
}

func TestHostDoesNotForward(t *testing.T) {
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	h := net.NewNode("h", false) // host, not router
	ia := a.AddInterface(l1)
	ih := h.AddInterface(l1)
	h.Routes = staticRoutes{out: ih, via: ipv6.MustParseAddr("2001:db8:9::9")}

	pkt := udpTo(ipv6.MustParseAddr("2001:db8:1::a"), ipv6.MustParseAddr("2001:db8:9::9"), 9, "x")
	ia.SendVia(pkt, ih.LinkLocal())
	s.Run()
	if h.Drops["not-mine"] != 1 {
		t.Fatalf("drops = %v, want not-mine", h.Drops)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s, net := testNet()
	// 8000 bit/s: a 100-byte frame takes 100ms to serialize.
	link := net.NewLink("l1", 8000, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	ib := b.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:1::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)

	var arrivals []sim.Time
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { arrivals = append(arrivals, s.Now()) })

	// Two back-to-back frames of exactly 100 bytes (40 hdr + 8 udp + 52 pay).
	pay := make([]byte, 52)
	for i := 0; i < 2; i++ {
		u := &ipv6.UDP{SrcPort: 1, DstPort: 9, Payload: pay}
		p := &ipv6.Packet{Hdr: ipv6.Header{Src: aA, Dst: bA, HopLimit: 64}, Proto: ipv6.ProtoUDP, Payload: u.Marshal(aA, bA)}
		a.OutputOn(ia, p)
	}
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != sim.Time(100*time.Millisecond) || arrivals[1] != sim.Time(200*time.Millisecond) {
		t.Fatalf("arrivals = %v, want 100ms and 200ms (queueing)", arrivals)
	}
}

func TestLinkCountersAndTaps(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	b.AddInterface(link).AddAddr(ipv6.MustParseAddr("2001:db8:1::b"))
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	ia.AddAddr(aA)

	var tapped []TxEvent
	link.AddTap(func(ev TxEvent) { tapped = append(tapped, ev) })

	pkt := udpTo(aA, ipv6.MustParseAddr("2001:db8:1::b"), 9, "count me")
	wire, _ := pkt.Encode()
	a.OutputOn(ia, pkt)
	s.Run()

	if link.TxFrames != 1 || link.TxBytes != uint64(len(wire)) {
		t.Fatalf("counters = %d frames / %d bytes, want 1 / %d", link.TxFrames, link.TxBytes, len(wire))
	}
	if len(tapped) != 1 {
		t.Fatalf("taps saw %d events", len(tapped))
	}
	if tapped[0].Pkt.Hdr.Src != aA || tapped[0].From != ia {
		t.Error("tap event fields wrong")
	}
}

func TestMoveDetachesAndNotifies(t *testing.T) {
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 0)
	l2 := net.NewLink("l2", 0, 0)
	m := net.NewNode("m", false)
	ifc := m.AddInterface(l1)

	var attachedTo []*Link
	m.OnAttach(func(i *Interface) { attachedTo = append(attachedTo, i.Link) })

	src := net.NewNode("src", false)
	isrc := src.AddInterface(l1)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	mA := ipv6.MustParseAddr("2001:db8:1::99")
	ifc.AddAddr(mA)

	net.Move(ifc, l2)
	if len(attachedTo) != 1 || attachedTo[0] != l2 {
		t.Fatalf("attach listeners = %v", attachedTo)
	}
	if len(l1.Ifaces) != 1 {
		t.Fatalf("l1 still has %d ifaces", len(l1.Ifaces))
	}
	// Frames sent on l1 to the moved node are now lost.
	got := false
	m.BindUDP(9, func(RxPacket, ipv6.UDP) { got = true })
	src.OutputOn(isrc, udpTo(sA, mA, 9, "gone"))
	s.Run()
	if got {
		t.Fatal("moved node received frame from old link")
	}
	// Move to same link is a no-op.
	net.Move(ifc, l2)
	if len(attachedTo) != 1 {
		t.Fatal("same-link move re-notified")
	}
}

func TestDeliveryAfterMoveIsSuppressed(t *testing.T) {
	// A frame already in flight when the receiver leaves the link must not
	// be delivered.
	s, net := testNet()
	l1 := net.NewLink("l1", 0, 50*time.Millisecond)
	l2 := net.NewLink("l2", 0, 0)
	src := net.NewNode("src", false)
	m := net.NewNode("m", false)
	isrc := src.AddInterface(l1)
	im := m.AddInterface(l1)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	mA := ipv6.MustParseAddr("2001:db8:1::2")
	isrc.AddAddr(sA)
	im.AddAddr(mA)

	got := false
	m.BindUDP(9, func(RxPacket, ipv6.UDP) { got = true })
	src.OutputOn(isrc, udpTo(sA, mA, 9, "in flight"))
	s.Schedule(10*time.Millisecond, func() { net.Move(im, l2) })
	s.Run()
	if got {
		t.Fatal("in-flight frame delivered after receiver left the link")
	}
}

func TestOutputFallbackDirect(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	ib := b.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:1::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)

	got := false
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got = true })
	// No route table: Output should resolve on-link directly.
	if err := a.Output(udpTo(aA, bA, 9, "direct")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !got {
		t.Fatal("on-link fallback did not deliver")
	}
	if err := a.Output(udpTo(aA, ipv6.MustParseAddr("ff0e::1"), 9, "x")); err == nil {
		t.Fatal("Output accepted multicast destination")
	}
}

func TestSendOnDownedInterface(t *testing.T) {
	_, net := testNet()
	link := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	ifc := a.AddInterface(link)
	link.detach(ifc)
	if err := ifc.Send(udpTo(ipv6.Loopback, ipv6.Loopback, 9, "x")); err == nil {
		t.Fatal("send on detached interface succeeded")
	}
}

func TestMalformedFrameCounted(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l1", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	b.AddInterface(link)
	_ = ia
	// Inject garbage directly.
	link.transmit(ia, []byte{0xde, 0xad}, nil, nil)
	s.Run()
	if b.Drops["malformed"] != 1 {
		t.Fatalf("drops = %v", b.Drops)
	}
}

func TestInterfaceAddrHelpers(t *testing.T) {
	_, net := testNet()
	link := net.NewLink("l1", 0, 0)
	n := net.NewNode("n", false)
	ifc := n.AddInterface(link)
	if !ifc.LinkLocal().IsLinkLocalUnicast() {
		t.Error("auto link-local not link-local")
	}
	if ifc.GlobalAddr() != ifc.LinkLocal() {
		t.Error("GlobalAddr without config should fall back to link-local")
	}
	a := ipv6.MustParseAddr("2001:db8:1::5")
	ifc.AddAddr(a)
	if ifc.GlobalAddr() != a {
		t.Error("GlobalAddr != configured address")
	}
	if len(ifc.Addrs()) != 1 {
		t.Error("Addrs() wrong")
	}
	ifc.RemoveAddr(a)
	if ifc.HasAddr(a) {
		t.Error("address not removed")
	}
	if !ifc.HasAddr(ifc.LinkLocal()) {
		t.Error("link-local not owned")
	}
}

func TestDistinctLinkLocalPerInterface(t *testing.T) {
	_, net := testNet()
	l := net.NewLink("l", 0, 0)
	a := net.NewNode("a", false).AddInterface(l)
	b := net.NewNode("b", false).AddInterface(l)
	if a.LinkLocal() == b.LinkLocal() {
		t.Fatal("two interfaces share a link-local address")
	}
}
