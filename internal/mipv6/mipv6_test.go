package mipv6_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/ndp"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

// fixture: home link L1 (router R1 = HA), foreign link L2 (router R2),
// transit link L0 connecting R1 and R2, plus a correspondent host on L0's
// third link L3 via R1. Topology:
//
//	L1 [R1] L0 [R2] L2        L3 hangs off R1 as well (correspondent).
type fixture struct {
	s    *sim.Scheduler
	net  *netem.Network
	dom  *routing.Domain
	l    map[string]*netem.Link
	r1   *netem.Node
	r2   *netem.Node
	ha   *mipv6.HomeAgent
	mn   *mipv6.MobileNode
	mnod *netem.Node
}

const mnIID = 0x99

func newFixture(seed int64) *fixture {
	f := &fixture{s: sim.NewScheduler(seed), l: map[string]*netem.Link{}}
	f.net = netem.New(f.s)
	for _, n := range []string{"L0", "L1", "L2", "L3"} {
		f.l[n] = f.net.NewLink(n, 0, time.Millisecond)
	}
	f.dom = routing.NewDomain(f.net)
	prefix := func(i int) ipv6.Addr { return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", i)) }
	for i, n := range []string{"L0", "L1", "L2", "L3"} {
		f.dom.AssignPrefix(f.l[n], prefix(i))
	}
	f.r1 = f.net.NewNode("R1", true)
	i10 := f.r1.AddInterface(f.l["L0"])
	i10.AddAddr(prefix(0).WithInterfaceID(1))
	i11 := f.r1.AddInterface(f.l["L1"])
	haAddr := prefix(1).WithInterfaceID(1)
	i11.AddAddr(haAddr)
	i13 := f.r1.AddInterface(f.l["L3"])
	i13.AddAddr(prefix(3).WithInterfaceID(1))

	f.r2 = f.net.NewNode("R2", true)
	i20 := f.r2.AddInterface(f.l["L0"])
	i20.AddAddr(prefix(0).WithInterfaceID(2))
	i22 := f.r2.AddInterface(f.l["L2"])
	i22.AddAddr(prefix(2).WithInterfaceID(2))

	f.dom.Recompute()

	prefixFor := func(ifc *netem.Interface) (ipv6.Addr, bool) { return f.dom.PrefixOf(ifc.Link) }
	ndp.NewRouter(f.r1, ndp.DefaultRouterConfig(), prefixFor)
	ndp.NewRouter(f.r2, ndp.DefaultRouterConfig(), prefixFor)

	f.ha = mipv6.NewHomeAgent(f.r1, i11, haAddr, mipv6.DefaultHAConfig())

	f.mnod = f.net.NewNode("mn", false)
	f.mnod.AddInterface(f.l["L1"])
	f.dom.Recompute() // install host table on mn
	f.mn = mipv6.NewMobileNode(f.mnod, mnIID, mipv6.DefaultMNConfig(prefix(1), haAddr))
	return f
}

// correspondent adds a host on L3 returning its address and a received
// counter for UDP port p.
func (f *fixture) correspondent(p uint16) (*netem.Node, ipv6.Addr, *int) {
	cn := f.net.NewNode("cn", false)
	ifc := cn.AddInterface(f.l["L3"])
	addr := ipv6.MustParseAddr("2001:db8:3::77")
	ifc.AddAddr(addr)
	f.dom.Recompute()
	n := new(int)
	cn.BindUDP(p, func(netem.RxPacket, ipv6.UDP) { (*n)++ })
	return cn, addr, n
}

func udpPacket(src, dst ipv6.Addr, port uint16, payload string) *ipv6.Packet {
	u := &ipv6.UDP{SrcPort: port, DstPort: port, Payload: []byte(payload)}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
}

func TestInitialHomeAttachment(t *testing.T) {
	f := newFixture(1)
	f.s.RunUntil(sim.Time(5 * time.Second))
	if !f.mn.AtHome() {
		t.Fatal("MN not at home after SLAAC on home link")
	}
	if f.mn.HomeAddress != ipv6.MustParseAddr("2001:db8:1::99") {
		t.Fatalf("home address = %s", f.mn.HomeAddress)
	}
	if !f.mnod.HasAddr(f.mn.HomeAddress) {
		t.Fatal("home address not configured")
	}
	if len(f.ha.Bindings()) != 0 {
		t.Fatal("binding cache not empty at home")
	}
}

func TestRegistrationAfterMove(t *testing.T) {
	f := newFixture(2)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(15 * time.Second))

	if f.mn.AtHome() {
		t.Fatal("MN still thinks it is at home")
	}
	wantCoA := ipv6.MustParseAddr("2001:db8:2::99")
	if f.mn.CareOf() != wantCoA {
		t.Fatalf("care-of = %s, want %s", f.mn.CareOf(), wantCoA)
	}
	if !f.mn.Registered() {
		t.Fatal("binding not acknowledged")
	}
	b, ok := f.ha.BindingFor(f.mn.HomeAddress)
	if !ok {
		t.Fatal("no binding cache entry")
	}
	if b.CareOf != wantCoA {
		t.Fatalf("cached care-of = %s", b.CareOf)
	}
	if f.mnod.Ifaces[0].HasAddr(f.mn.HomeAddress) {
		t.Fatal("home address still configured on the foreign interface")
	}
	if f.l["L2"].Resolve(f.mn.HomeAddress) != nil {
		t.Fatal("home address answers resolution on the foreign link")
	}
	// But the node still accepts it as its own (routing-header delivery).
	if !f.mnod.HasAddr(f.mn.HomeAddress) {
		t.Fatal("home address not accepted logically while away")
	}
}

func TestHomeAgentInterceptAndTunnel(t *testing.T) {
	f := newFixture(3)
	cn, cnAddr, _ := f.correspondent(7)
	got := 0
	f.mnod.BindUDP(7, func(rx netem.RxPacket, u ipv6.UDP) {
		got++
		if rx.Pkt.Hdr.Dst != f.mn.HomeAddress {
			t.Errorf("inner packet to %s, want home address", rx.Pkt.Hdr.Dst)
		}
	})
	f.s.RunUntil(sim.Time(5 * time.Second))

	// While at home: direct on-link delivery.
	_ = cn.Output(udpPacket(cnAddr, f.mn.HomeAddress, 7, "at home"))
	f.s.RunUntil(sim.Time(6 * time.Second))
	if got != 1 {
		t.Fatalf("at-home delivery failed: %d", got)
	}

	// Move away; packets to the home address must arrive via tunnel.
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))
	_ = cn.Output(udpPacket(cnAddr, f.mn.HomeAddress, 7, "away"))
	f.s.RunUntil(sim.Time(25 * time.Second))
	if got != 2 {
		t.Fatalf("tunneled delivery failed: %d", got)
	}
	if f.ha.PacketsIntercepted != 1 || f.ha.PacketsTunneled != 1 {
		t.Fatalf("HA stats: intercepted=%d tunneled=%d", f.ha.PacketsIntercepted, f.ha.PacketsTunneled)
	}
}

func TestReverseTunnel(t *testing.T) {
	f := newFixture(4)
	_, cnAddr, cnGot := f.correspondent(8)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	// MN sends to the correspondent via the reverse tunnel with its home
	// address as inner source.
	inner := udpPacket(f.mn.HomeAddress, cnAddr, 8, "from afar")
	if err := f.mn.SendReverseTunneled(inner); err != nil {
		t.Fatal(err)
	}
	f.s.RunUntil(sim.Time(25 * time.Second))
	if *cnGot != 1 {
		t.Fatalf("correspondent got %d", *cnGot)
	}
	if f.ha.PacketsDetunneled != 1 {
		t.Fatalf("HA detunneled %d", f.ha.PacketsDetunneled)
	}
}

func TestReverseTunnelRejectsUnbound(t *testing.T) {
	f := newFixture(5)
	_, cnAddr, cnGot := f.correspondent(8)
	f.s.RunUntil(sim.Time(5 * time.Second))
	// Forge a tunnel packet from an unbound source.
	inner := udpPacket(ipv6.MustParseAddr("2001:db8:1::bad"), cnAddr, 8, "forged")
	outer, err := ipv6.Encapsulate(ipv6.MustParseAddr("2001:db8:2::bad"), f.ha.Address, 64, inner)
	if err != nil {
		t.Fatal(err)
	}
	attacker := f.net.NewNode("x", false)
	ifc := attacker.AddInterface(f.l["L2"])
	ifc.AddAddr(ipv6.MustParseAddr("2001:db8:2::bad"))
	f.dom.Recompute()
	_ = attacker.Output(outer)
	f.s.RunUntil(sim.Time(10 * time.Second))
	if *cnGot != 0 {
		t.Fatal("HA decapsulated a tunnel from an unbound care-of address")
	}
}

func TestReturningHomeDeregisters(t *testing.T) {
	f := newFixture(6)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))
	if len(f.ha.Bindings()) != 1 {
		t.Fatal("no binding after move")
	}
	f.net.Move(f.mnod.Ifaces[0], f.l["L1"])
	f.s.RunUntil(sim.Time(40 * time.Second))
	if !f.mn.AtHome() {
		t.Fatal("MN did not detect return home")
	}
	if len(f.ha.Bindings()) != 0 {
		t.Fatal("binding not removed after deregistration")
	}
	if !f.mnod.HasAddr(f.mn.HomeAddress) {
		t.Fatal("home address not restored")
	}
}

func TestBindingLifetimeExpiry(t *testing.T) {
	f := newFixture(7)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))
	if len(f.ha.Bindings()) != 1 {
		t.Fatal("no binding")
	}
	// Silence the MN's refreshes by detaching it entirely (out of
	// coverage, as the paper discusses: "unless they are detached from the
	// network for a certain amount of time").
	void := f.net.NewLink("void", 0, time.Millisecond)
	f.net.Move(f.mnod.Ifaces[0], void)
	f.s.RunFor(mipv6.DefaultHAConfig().MaxLifetime + 30*time.Second)
	if len(f.ha.Bindings()) != 0 {
		t.Fatal("binding survived lifetime without refreshes")
	}
}

func TestBindingRefreshKeepsAlive(t *testing.T) {
	f := newFixture(8)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	// Stay away over 3 lifetimes: refreshes must keep the binding.
	f.s.RunFor(3 * mipv6.DefaultHAConfig().MaxLifetime)
	if len(f.ha.Bindings()) != 1 {
		t.Fatal("binding lost despite refreshes")
	}
	if f.mn.BindingUpdatesSent < 4 {
		t.Fatalf("only %d binding updates; refresh ticker dead?", f.mn.BindingUpdatesSent)
	}
}

func TestRoutingHeaderDelivery(t *testing.T) {
	// The draft's alternative to encapsulation: the HA rewrites the packet
	// toward the care-of address with a type 0 routing header carrying the
	// home address. 24 bytes of overhead instead of 40.
	f := newFixture(17)
	f.ha.Config.Mode = mipv6.TunnelRoutingHeader
	cn, cnAddr, _ := f.correspondent(7)
	got := 0
	var gotDst ipv6.Addr
	f.mnod.BindUDP(7, func(rx netem.RxPacket, u ipv6.UDP) {
		got++
		gotDst = rx.Pkt.Hdr.Dst
		if rx.Pkt.Routing == nil || rx.Pkt.Routing.SegmentsLeft != 0 {
			t.Errorf("routing header not consumed: %+v", rx.Pkt.Routing)
		}
	})

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	var rhBytes, encBytes int
	f.l["L2"].AddTap(func(ev netem.TxEvent) {
		switch {
		case ev.Pkt.Routing != nil:
			rhBytes = len(ev.Frame)
		case ev.Pkt.Proto == ipv6.ProtoIPv6:
			encBytes = len(ev.Frame)
		}
	})
	_ = cn.Output(udpPacket(cnAddr, f.mn.HomeAddress, 7, "via rh"))
	f.s.RunUntil(sim.Time(25 * time.Second))

	if got != 1 {
		t.Fatalf("delivered %d via routing header", got)
	}
	// The final destination after segment processing is the home address.
	if gotDst != f.mn.HomeAddress {
		t.Fatalf("delivered with dst %s, want home address", gotDst)
	}
	if encBytes != 0 {
		t.Fatal("encapsulation used despite routing-header mode")
	}
	// Overhead check: the same payload encapsulated would be 16 B bigger.
	base := udpPacket(cnAddr, f.mn.HomeAddress, 7, "via rh").WireLen()
	if rhBytes != base+24 {
		t.Fatalf("routing-header frame %d bytes, want base %d + 24", rhBytes, base)
	}

	// Multicast still uses encapsulation (routing headers cannot carry a
	// group as an intermediate hop meaningfully); verify fallback works.
	group := ipv6.MustParseAddr("ff0e::101")
	f.mn.GroupList = []ipv6.Addr{group}
	f.mn.SetGroupList([]ipv6.Addr{group})
	f.s.RunUntil(sim.Time(30 * time.Second))
	mGot := 0
	f.mnod.BindUDP(9, func(rx netem.RxPacket, u ipv6.UDP) {
		if rx.ViaTunnel {
			mGot++
		}
	})
	src := f.net.NewNode("msrc", false)
	sifc := src.AddInterface(f.l["L1"])
	sAddr := ipv6.MustParseAddr("2001:db8:1::5")
	sifc.AddAddr(sAddr)
	_ = src.OutputOn(sifc, udpPacket(sAddr, group, 9, "grp"))
	f.s.RunUntil(sim.Time(35 * time.Second))
	if mGot != 1 {
		t.Fatalf("multicast fallback delivered %d", mGot)
	}
}

func TestTunnelPathMTUDiscovery(t *testing.T) {
	// RFC 2473 §6.4: the bottleneck is REMOTE from the tunnel entry — the
	// foreign link is narrow while the home agent's links are wide. The
	// first big tunneled packet dies at R2 with a Packet Too Big back to
	// the HA, which learns the path MTU to the care-of address and
	// fragments subsequent tunnel packets at the source.
	f := newFixture(16)
	f.l["L2"].MTU = 1280 // narrow foreign link; everything else unlimited
	cn, cnAddr, _ := f.correspondent(7)
	got := 0
	f.mnod.BindUDP(7, func(netem.RxPacket, ipv6.UDP) { got++ })

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	send := func() {
		payload := make([]byte, 1500)
		u := &ipv6.UDP{SrcPort: 7, DstPort: 7, Payload: payload}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: cnAddr, Dst: f.mn.HomeAddress, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(cnAddr, f.mn.HomeAddress),
		}
		_ = cn.Output(pkt)
	}
	send() // dies at R2; PTB educates the HA
	f.s.RunUntil(sim.Time(25 * time.Second))
	if got != 0 {
		t.Fatal("first too-big tunnel packet delivered")
	}
	if f.r2.PacketTooBigSent == 0 {
		t.Fatal("R2 sent no Packet Too Big")
	}
	coa := f.mn.CareOf()
	if f.r1.PathMTU(coa) != 1280 {
		t.Fatalf("HA learned path MTU %d toward the care-of address, want 1280", f.r1.PathMTU(coa))
	}

	send() // now fragmented at the HA, reassembled by the MN
	f.s.RunUntil(sim.Time(30 * time.Second))
	if got != 1 {
		t.Fatalf("delivered %d after tunnel PMTUD, want 1", got)
	}
}

func TestBindingRequestDrivesRefresh(t *testing.T) {
	// Silence the MN's proactive refresh: the binding must now survive on
	// the HA's Binding Requests alone.
	f := newFixture(14)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.mn.Config.DisableProactiveRefresh = true
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	// Three lifetimes: without either refresh mechanism the binding would
	// be long gone.
	f.s.RunFor(3 * mipv6.DefaultHAConfig().MaxLifetime)
	if _, ok := f.ha.BindingFor(f.mn.HomeAddress); !ok {
		t.Fatal("binding lost despite Binding Requests")
	}
	if f.ha.BindingRequestsSent < 2 {
		t.Fatalf("HA sent only %d binding requests", f.ha.BindingRequestsSent)
	}
	if f.mn.BindingUpdatesSent < 3 {
		t.Fatalf("MN sent only %d updates (request-driven)", f.mn.BindingUpdatesSent)
	}
}

func TestBindingRequestDisabled(t *testing.T) {
	f := newFixture(15)
	f.ha.Config.RequestRefresh = false
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.mn.Config.DisableProactiveRefresh = true
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunFor(mipv6.DefaultHAConfig().MaxLifetime + 30*time.Second)
	if _, ok := f.ha.BindingFor(f.mn.HomeAddress); ok {
		t.Fatal("binding survived with both refresh mechanisms off")
	}
	if f.ha.BindingRequestsSent != 0 {
		t.Fatalf("requests sent while disabled: %d", f.ha.BindingRequestsSent)
	}
}

func TestGroupListCarriedInBindingUpdate(t *testing.T) {
	f := newFixture(9)
	g1 := ipv6.MustParseAddr("ff0e::101")
	g2 := ipv6.MustParseAddr("ff0e::202")
	var events []mipv6.BindingEvent
	f.ha.OnBinding = func(ev mipv6.BindingEvent) { events = append(events, ev) }

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.mn.SetGroupList([]ipv6.Addr{g1}) // at home: stored, not sent
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	b, ok := f.ha.BindingFor(f.mn.HomeAddress)
	if !ok || len(b.Groups) != 1 || b.Groups[0] != g1 {
		t.Fatalf("binding groups = %+v", b)
	}
	// Update the list while away: pushed immediately.
	f.s.Schedule(0, func() { f.mn.SetGroupList([]ipv6.Addr{g1, g2}) })
	f.s.RunUntil(sim.Time(25 * time.Second))
	b, _ = f.ha.BindingFor(f.mn.HomeAddress)
	if len(b.Groups) != 2 {
		t.Fatalf("binding groups after update = %v", b.Groups)
	}
	sub := f.ha.SubscribedGroups()
	if len(sub) != 2 || sub[0] != g1 || sub[1] != g2 {
		t.Fatalf("SubscribedGroups = %v", sub)
	}
	if len(events) < 2 {
		t.Fatalf("binding events = %d", len(events))
	}
}

func TestMulticastTunneledToSubscribedMN(t *testing.T) {
	f := newFixture(10)
	group := ipv6.MustParseAddr("ff0e::101")
	got := 0
	f.mnod.BindUDP(9, func(rx netem.RxPacket, u ipv6.UDP) { got++ })

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.mn.SetGroupList([]ipv6.Addr{group})
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	// A multicast datagram reaches the HA node (delivered locally there —
	// R1 is a router, all-multicast). Inject from a host on L1.
	src := f.net.NewNode("msrc", false)
	sifc := src.AddInterface(f.l["L1"])
	sAddr := ipv6.MustParseAddr("2001:db8:1::5")
	sifc.AddAddr(sAddr)
	_ = src.OutputOn(sifc, udpPacket(sAddr, group, 9, "group data"))
	f.s.RunUntil(sim.Time(25 * time.Second))

	if got != 1 {
		t.Fatalf("MN received %d tunneled multicast datagrams", got)
	}
	if f.ha.MulticastTunneled != 1 {
		t.Fatalf("HA MulticastTunneled = %d", f.ha.MulticastTunneled)
	}
}

func TestReverseTunneledMulticastReoriginatedOnHomeLink(t *testing.T) {
	f := newFixture(11)
	group := ipv6.MustParseAddr("ff0e::101")
	// Listener on the home link.
	lst := f.net.NewNode("lst", false)
	lifc := lst.AddInterface(f.l["L1"])
	lifc.AddAddr(ipv6.MustParseAddr("2001:db8:1::7"))
	lifc.JoinGroup(group)
	got := 0
	lst.BindUDP(9, func(netem.RxPacket, ipv6.UDP) { got++ })

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	inner := udpPacket(f.mn.HomeAddress, group, 9, "mcast via tunnel")
	if err := f.mn.SendReverseTunneled(inner); err != nil {
		t.Fatal(err)
	}
	f.s.RunUntil(sim.Time(25 * time.Second))
	if got != 1 {
		t.Fatalf("home-link listener received %d", got)
	}
}

func TestTunnelFragmentationAcrossMTU(t *testing.T) {
	// An inner packet near the MTU fits natively but the encapsulated
	// outer exceeds it: the HA (the outer packet's source) fragments; the
	// MN reassembles and receives the whole inner packet.
	f := newFixture(13)
	for _, l := range f.l {
		l.MTU = 1500
	}
	cn, cnAddr, _ := f.correspondent(7)
	var got []byte
	f.mnod.BindUDP(7, func(rx netem.RxPacket, u ipv6.UDP) { got = u.Payload })

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))

	payload := make([]byte, 1420) // inner frame 1468 ≤ 1500; outer 1508 > 1500
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	u := &ipv6.UDP{SrcPort: 7, DstPort: 7, Payload: payload}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: cnAddr, Dst: f.mn.HomeAddress, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(cnAddr, f.mn.HomeAddress),
	}
	// Count fragments on the foreign link.
	frags := 0
	f.l["L2"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Fragment != nil {
			frags++
		}
	})
	_ = cn.Output(pkt)
	f.s.RunUntil(sim.Time(25 * time.Second))

	if got == nil {
		t.Fatal("fragmented tunnel packet never delivered")
	}
	if len(got) != len(payload) {
		t.Fatalf("payload %d bytes, want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("payload mangled through tunnel fragmentation")
		}
	}
	if frags != 2 {
		t.Fatalf("%d fragments on the foreign link, want 2", frags)
	}
	if f.ha.PacketsTunneled != 1 {
		t.Fatalf("HA tunneled %d packets", f.ha.PacketsTunneled)
	}
}

func TestBindingUpdateRetransmitsUntilAcked(t *testing.T) {
	f := newFixture(12)
	f.s.RunUntil(sim.Time(5 * time.Second))
	// Partition the MN's new link from the HA: attach to an isolated link
	// with an NDP router that advertises a prefix but routes nowhere.
	iso := f.net.NewLink("iso", 0, time.Millisecond)
	rIso := f.net.NewNode("riso", true)
	rIso.AddInterface(iso) // deliberately not in the routing domain
	ndp.NewRouter(rIso, ndp.DefaultRouterConfig(), func(*netem.Interface) (ipv6.Addr, bool) {
		return ipv6.MustParseAddr("2001:db8:99::"), true
	})
	f.net.Move(f.mnod.Ifaces[0], iso)
	f.s.RunUntil(sim.Time(15 * time.Second))
	if f.mn.Registered() {
		t.Fatal("registered despite partition")
	}
	if f.mn.BindingUpdatesSent < 3 {
		t.Fatalf("only %d binding updates sent; no retransmission", f.mn.BindingUpdatesSent)
	}
}
