package pimdm_test

// Engine tests run PIM-DM together with MLD and unicast routing on the
// paper's Figure 1 network. They are integration tests by nature: the
// protocol's observable behavior (who receives, which links carry traffic,
// which control messages flow) is what the paper reasons about.

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

var group = ipv6.MustParseAddr("ff0e::101")

type fig1 struct {
	s       *sim.Scheduler
	net     *netem.Network
	dom     *routing.Domain
	links   map[string]*netem.Link
	routers map[string]*netem.Node
	engines map[string]*pimdm.Engine
	mlds    map[string]*mld.Router
}

func newFig1(seed int64, pimCfg pimdm.Config, mldCfg mld.Config) *fig1 {
	f := &fig1{
		s:       sim.NewScheduler(seed),
		links:   map[string]*netem.Link{},
		routers: map[string]*netem.Node{},
		engines: map[string]*pimdm.Engine{},
		mlds:    map[string]*mld.Router{},
	}
	f.net = netem.New(f.s)
	for i := 1; i <= 6; i++ {
		name := fmt.Sprintf("L%d", i)
		f.links[name] = f.net.NewLink(name, 0, time.Millisecond)
	}
	attach := map[string][]string{
		"A": {"L1", "L2"},
		"B": {"L2", "L3"},
		"C": {"L3"},
		"D": {"L3", "L4", "L5"},
		"E": {"L5", "L6"},
	}
	f.dom = routing.NewDomain(f.net)
	for i := 1; i <= 6; i++ {
		f.dom.AssignPrefix(f.links[fmt.Sprintf("L%d", i)], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", i)))
	}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		r := f.net.NewNode(name, true)
		f.routers[name] = r
		for _, ln := range attach[name] {
			ifc := r.AddInterface(f.links[ln])
			p, _ := f.dom.PrefixOf(f.links[ln])
			ifc.AddAddr(p.WithInterfaceID(uint64(name[0])))
		}
	}
	f.dom.Recompute()
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		r := f.routers[name]
		eng := pimdm.New(r, pimCfg, f.dom.TableOf(r))
		f.engines[name] = eng
		mr := mld.NewRouter(r, mldCfg)
		mr.OnListenerChange = func(ev mld.ListenerEvent) {
			eng.HandleListenerChange(ev.Iface, ev.Group, ev.Present)
		}
		f.mlds[name] = mr
	}
	return f
}

// addReceiver creates a host on link running an MLD listener, already
// joined to the group, counting datagrams on UDP port 9000.
func (f *fig1) addReceiver(name, link string) (*netem.Node, *mld.Host, *func() int, *[]sim.Time) {
	n := f.net.NewNode(name, false)
	ifc := n.AddInterface(f.links[link])
	p, _ := f.dom.PrefixOf(f.links[link])
	ifc.AddAddr(p.WithInterfaceID(uint64(name[len(name)-1]) + 1000))
	h := mld.NewHost(n, mld.DefaultHostConfig())
	h.Join(ifc, group)
	count := 0
	var times []sim.Time
	n.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) {
		count++
		times = append(times, f.s.Now())
	})
	get := func() int { return count }
	return n, h, &get, &times
}

// addSender creates a CBR source on link sending every interval.
func (f *fig1) addSender(name, link string, interval time.Duration) (*netem.Node, *sim.Ticker, ipv6.Addr) {
	n := f.net.NewNode(name, false)
	ifc := n.AddInterface(f.links[link])
	p, _ := f.dom.PrefixOf(f.links[link])
	addr := p.WithInterfaceID(uint64(name[len(name)-1]) + 2000)
	ifc.AddAddr(addr)
	tick := sim.NewTicker(f.s, interval, 0, func() {
		u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: make([]byte, 64)}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: addr, Dst: group, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(addr, group),
		}
		_ = n.OutputOn(ifc, pkt)
	})
	return n, tick, addr
}

// countData counts multicast data frames (UDP to the group) on a link.
func (f *fig1) countData(link string) *int {
	n := new(int)
	f.links[link].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == group {
			(*n)++
		}
	})
	return n
}

func TestFigure1TreeConverges(t *testing.T) {
	f := newFig1(1, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	_, _, r1got, _ := f.addReceiver("r1", "L1")
	_, _, r2got, _ := f.addReceiver("r2", "L2")
	_, _, r3got, _ := f.addReceiver("r3", "L4")
	f.addSender("s0", "L1", 100*time.Millisecond)

	onL5 := f.countData("L5")
	onL6 := f.countData("L6")

	// Let MLD learn the members, then the source starts at t=0 anyway;
	// give everything 60s.
	f.s.RunUntil(sim.Time(60 * time.Second))

	// All three receivers get an ongoing stream (sender live since t≈0;
	// receiver reports at t=0; minor startup losses allowed).
	for i, got := range []*func() int{r1got, r2got, r3got} {
		n := (*got)()
		if n < 500 {
			t.Errorf("receiver %d got %d datagrams, want ≥500 of ~600", i+1, n)
		}
	}
	// Links 5 and 6 carry at most the few packets before E's prune landed
	// (prune delay 3s at D).
	if *onL5 > 50 {
		t.Errorf("L5 carried %d data frames; prune did not converge", *onL5)
	}
	if *onL6 != 0 {
		t.Errorf("L6 carried %d data frames; E forwarded onto a memberless leaf", *onL6)
	}

	// D's state: forwarding on L4, pruned on L5.
	entries := f.engines["D"].Entries()
	if len(entries) != 1 {
		t.Fatalf("D has %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Upstream != "L3" {
		t.Errorf("D upstream = %s, want L3", e.Upstream)
	}
	if len(e.ForwardingOn) != 1 || e.ForwardingOn[0] != "L4" {
		t.Errorf("D forwarding on %v, want [L4]", e.ForwardingOn)
	}
	if len(e.PrunedOn) != 1 || e.PrunedOn[0] != "L5" {
		t.Errorf("D pruned on %v, want [L5]", e.PrunedOn)
	}
	// C pruned itself upstream; D's override join must have been sent.
	if f.engines["D"].Stats.JoinsSent == 0 {
		t.Error("D never sent an override join against C's prune")
	}
	if f.engines["C"].Stats.PrunesSent == 0 {
		t.Error("C never pruned")
	}
	// And crucially B must still forward onto L3 (R3 kept receiving, so it
	// does).
}

func TestPruneDelayGivesJoinWindow(t *testing.T) {
	// R3 on L4 keeps receiving without interruption even though C prunes
	// L3: D's override Join beats B's prune-delay timer.
	f := newFig1(2, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	_, _, r3got, times := f.addReceiver("r3", "L4")
	f.addSender("s0", "L1", 100*time.Millisecond)
	f.s.RunUntil(sim.Time(30 * time.Second))
	if (*r3got)() < 250 {
		t.Fatalf("r3 got %d", (*r3got)())
	}
	// No gap longer than 3 intervals after the first delivery.
	for i := 1; i < len(*times); i++ {
		if gap := (*times)[i].Sub((*times)[i-1]); gap > 350*time.Millisecond {
			t.Fatalf("delivery gap %v at %v: join override failed", gap, (*times)[i])
		}
	}
}

func TestGraftReconnectsPrunedLink(t *testing.T) {
	f := newFig1(3, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.addSender("s0", "L1", 100*time.Millisecond)
	_, _, r1got, _ := f.addReceiver("r1", "L1")
	_ = r1got
	// Converge with L5/L6 pruned.
	f.s.RunUntil(sim.Time(20 * time.Second))

	// Now a receiver appears on L6: E must graft through D, B.
	var joinedAt sim.Time
	var firstData sim.Time
	n := f.net.NewNode("late", false)
	ifc := n.AddInterface(f.links["L6"])
	h := mld.NewHost(n, mld.DefaultHostConfig())
	n.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) {
		if firstData == 0 {
			firstData = f.s.Now()
		}
	})
	f.s.Schedule(0, func() {
		joinedAt = f.s.Now()
		h.Join(ifc, group)
	})
	f.s.RunUntil(sim.Time(60 * time.Second))

	if firstData == 0 {
		t.Fatal("late receiver never got data after graft")
	}
	joinDelay := firstData.Sub(joinedAt)
	// Unsolicited report -> E grafts -> D grafts -> traffic; next packet
	// within ~report + graft propagation + one send interval.
	if joinDelay > time.Second {
		t.Fatalf("join delay via graft = %v, want < 1s", joinDelay)
	}
	if f.engines["E"].Stats.GraftsSent == 0 {
		t.Error("E sent no graft")
	}
	if f.engines["D"].Stats.GraftAcksSent == 0 {
		t.Error("D acked no graft")
	}
}

func TestLeaveTriggersPrune(t *testing.T) {
	f := newFig1(4, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.addSender("s0", "L1", 100*time.Millisecond)
	_, h3, _, _ := f.addReceiver("r3", "L4")
	_, _, r1got, _ := f.addReceiver("r1", "L1")
	_ = r1got
	f.s.RunUntil(sim.Time(20 * time.Second))

	onL4 := f.countData("L4")
	onL3 := f.countData("L3")
	var r3ifc *netem.Interface
	for _, nd := range f.net.Nodes {
		if nd.Name == "r3" {
			r3ifc = nd.Ifaces[0]
		}
	}
	h3.Leave(r3ifc, group)
	f.s.RunUntil(sim.Time(60 * time.Second))

	// After the Done -> last-listener queries -> listener removal (~2s) ->
	// prune, L4 must fall silent. Allow the first ~6s of traffic.
	before4 := *onL4
	before3 := *onL3
	f.s.RunUntil(sim.Time(90 * time.Second))
	if *onL4 != before4 {
		t.Errorf("L4 still carrying data %d -> %d after leave", before4, *onL4)
	}
	// With no members below B, D prunes L3 and B stops forwarding there.
	if *onL3 != before3 {
		t.Errorf("L3 still carrying data %d -> %d after leave", before3, *onL3)
	}
}

func TestSGStateExpiresAfterDataTimeout(t *testing.T) {
	cfg := pimdm.DefaultConfig()
	f := newFig1(5, cfg, mld.FastConfig(30*time.Second))
	_, tick, _ := f.addSender("s0", "L1", 100*time.Millisecond)
	f.addReceiver("r3", "L4")
	f.s.RunUntil(sim.Time(10 * time.Second))
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		if f.engines[name].EntryCount() != 1 {
			t.Fatalf("%s has %d entries during streaming", name, f.engines[name].EntryCount())
		}
	}
	// Source goes silent: the paper's 210s data timeout clears state.
	f.s.Schedule(0, func() { tick.Stop() })
	f.s.RunFor(cfg.DataTimeout + 10*time.Second)
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		if n := f.engines[name].EntryCount(); n != 0 {
			t.Errorf("%s still holds %d (S,G) entries %v after silence", name, n, cfg.DataTimeout)
		}
	}
}

func TestAssertElectsSingleForwarder(t *testing.T) {
	for _, eng := range denseEngines {
		t.Run(eng.name, func(t *testing.T) { testAssertElectsSingleForwarder(t, eng.make) })
	}
}

func testAssertElectsSingleForwarder(t *testing.T, newEngine func(*netem.Node, engine.UnicastRouting) engine.MulticastEngine) {
	// Parallel-router topology: S on L0; R1 and R2 both bridge L0 to L1
	// where a member lives. Both create (S,G) state and forward; asserts
	// must elect exactly one forwarder.
	s := sim.NewScheduler(6)
	net := netem.New(s)
	l0 := net.NewLink("L0", 0, time.Millisecond)
	l1 := net.NewLink("L1", 0, time.Millisecond)
	dom := routing.NewDomain(net)
	dom.AssignPrefix(l0, ipv6.MustParseAddr("2001:db8:10::"))
	dom.AssignPrefix(l1, ipv6.MustParseAddr("2001:db8:11::"))
	var engines []engine.MulticastEngine
	for i := 0; i < 2; i++ {
		r := net.NewNode(fmt.Sprintf("R%d", i+1), true)
		i0 := r.AddInterface(l0)
		i0.AddAddr(ipv6.MustParseAddr(fmt.Sprintf("2001:db8:10::%d", i+1)))
		i1 := r.AddInterface(l1)
		i1.AddAddr(ipv6.MustParseAddr(fmt.Sprintf("2001:db8:11::%d", i+1)))
	}
	dom.Recompute()
	for _, nd := range net.Nodes {
		e := newEngine(nd, dom.TableOf(nd))
		engines = append(engines, e)
		mr := mld.NewRouter(nd, mld.FastConfig(30*time.Second))
		mr.OnListenerChange = func(ev mld.ListenerEvent) {
			e.HandleListenerChange(ev.Iface, ev.Group, ev.Present)
		}
	}
	// Member on L1.
	m := net.NewNode("m", false)
	mifc := m.AddInterface(l1)
	mifc.AddAddr(ipv6.MustParseAddr("2001:db8:11::99"))
	mh := mld.NewHost(m, mld.DefaultHostConfig())
	mh.Join(mifc, group)
	received := 0
	m.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) { received++ })

	// Source on L0.
	src := net.NewNode("src", false)
	sifc := src.AddInterface(l0)
	sAddr := ipv6.MustParseAddr("2001:db8:10::50")
	sifc.AddAddr(sAddr)
	sent := 0
	sim.NewTicker(s, 100*time.Millisecond, 0, func() {
		sent++
		u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: []byte("x")}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: sAddr, Dst: group, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(sAddr, group),
		}
		_ = src.OutputOn(sifc, pkt)
	})

	s.RunUntil(sim.Time(60 * time.Second))

	if engines[0].MulticastStats().AssertsSent == 0 && engines[1].MulticastStats().AssertsSent == 0 {
		t.Fatal("no asserts were ever sent by parallel forwarders")
	}
	// After convergence the member receives exactly one copy per datagram:
	// over the full minute (600 sent), duplicates only during the initial
	// assert window.
	if received < 590 || received > 615 {
		t.Fatalf("member received %d copies of %d datagrams; assert did not converge to a single forwarder", received, sent)
	}
	// Exactly one engine still forwards on L1.
	fw := 0
	for _, e := range engines {
		for _, info := range e.Entries() {
			for _, l := range info.ForwardingOn {
				if l == "L1" {
					fw++
				}
			}
		}
	}
	if fw != 1 {
		t.Fatalf("%d engines forwarding on L1 after assert, want 1", fw)
	}
}

// TestJoinOverrideBetweenSiblings builds two sibling routers downstream of
// one upstream on a shared LAN, each with its own member:
//
//	L0{S,R1}  L1{R1,R2,R3}  L2{R2,m2}  L3{R3,m3}
//
// When m2 leaves and R2 prunes (S,G) on L1, R3 must send an overriding
// Join within the prune delay so m3 keeps receiving — the exact mechanism
// behind the paper's T_PruneDel discussion.
func TestJoinOverrideBetweenSiblings(t *testing.T) {
	s := sim.NewScheduler(31)
	net := netem.New(s)
	dom := routing.NewDomain(net)
	links := make([]*netem.Link, 4)
	for i := range links {
		links[i] = net.NewLink(fmt.Sprintf("L%d", i), 0, time.Millisecond)
		dom.AssignPrefix(links[i], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:1%d::", i)))
	}
	mk := func(name string, ls ...*netem.Link) *netem.Node {
		r := net.NewNode(name, true)
		for j, l := range ls {
			ifc := r.AddInterface(l)
			p, _ := dom.PrefixOf(l)
			ifc.AddAddr(p.WithInterfaceID(uint64(name[1]-'0')*10 + uint64(j)))
		}
		return r
	}
	r1 := mk("R1", links[0], links[1])
	r2 := mk("R2", links[1], links[2])
	r3 := mk("R3", links[1], links[3])
	dom.Recompute()
	engines := map[string]*pimdm.Engine{}
	for _, r := range []*netem.Node{r1, r2, r3} {
		eng := pimdm.New(r, pimdm.DefaultConfig(), dom.TableOf(r))
		engines[r.Name] = eng
		mr := mld.NewRouter(r, mld.FastConfig(20*time.Second))
		e := eng
		mr.OnListenerChange = func(ev mld.ListenerEvent) {
			e.HandleListenerChange(ev.Iface, ev.Group, ev.Present)
		}
	}
	addMember := func(name string, l *netem.Link, suffix uint64) (*mld.Host, *netem.Interface, *int) {
		m := net.NewNode(name, false)
		ifc := m.AddInterface(l)
		p, _ := dom.PrefixOf(l)
		ifc.AddAddr(p.WithInterfaceID(0x100 + suffix))
		h := mld.NewHost(m, mld.DefaultHostConfig())
		h.Join(ifc, group)
		n := new(int)
		m.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) { (*n)++ })
		return h, ifc, n
	}
	h2, i2, got2 := addMember("m2", links[2], 2)
	_, _, got3 := addMember("m3", links[3], 3)

	// Source on L0.
	src := net.NewNode("src", false)
	sifc := src.AddInterface(links[0])
	p0, _ := dom.PrefixOf(links[0])
	sAddr := p0.WithInterfaceID(0x55)
	sifc.AddAddr(sAddr)
	sim.NewTicker(s, 100*time.Millisecond, 0, func() {
		u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: []byte("x")}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: sAddr, Dst: group, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(sAddr, group),
		}
		_ = src.OutputOn(sifc, pkt)
	})

	s.RunUntil(sim.Time(20 * time.Second))
	if *got2 < 150 || *got3 < 150 {
		t.Fatalf("setup: m2=%d m3=%d", *got2, *got3)
	}

	// m2 leaves; R2 will prune (S,G) upstream on the shared LAN L1.
	h2.Leave(i2, group)
	before3 := *got3
	joins3 := engines["R3"].Stats.JoinsSent
	s.RunUntil(sim.Time(60 * time.Second))

	if engines["R2"].Stats.PrunesSent == 0 {
		t.Fatal("R2 never pruned after losing its member")
	}
	if engines["R3"].Stats.JoinsSent <= joins3 {
		t.Fatal("R3 sent no overriding join")
	}
	// m3's stream must be uninterrupted: 40 s at 10/s ≈ 400 more.
	if *got3-before3 < 380 {
		t.Fatalf("m3 lost traffic across sibling's prune: +%d", *got3-before3)
	}
	// And L2 (m2's link) must fall silent while L1 keeps carrying.
	quiet := 0
	links[2].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == group {
			quiet++
		}
	})
	s.RunUntil(sim.Time(90 * time.Second))
	if quiet > 0 {
		t.Fatalf("L2 still carried %d data frames after leave", quiet)
	}
}

// TestAssertStabilityOverExpiryCycles: assert-loser state expires every
// AssertTime (180 s); each expiry briefly re-admits the duplicate
// forwarder until the next data packet re-runs the election. Over many
// cycles the duplicate rate must stay marginal.
func TestAssertStabilityOverExpiryCycles(t *testing.T) {
	s := sim.NewScheduler(81)
	net := netem.New(s)
	l0 := net.NewLink("L0", 0, time.Millisecond)
	l1 := net.NewLink("L1", 0, time.Millisecond)
	dom := routing.NewDomain(net)
	dom.AssignPrefix(l0, ipv6.MustParseAddr("2001:db8:10::"))
	dom.AssignPrefix(l1, ipv6.MustParseAddr("2001:db8:11::"))
	for i := 0; i < 2; i++ {
		r := net.NewNode(fmt.Sprintf("R%d", i+1), true)
		r.AddInterface(l0).AddAddr(ipv6.MustParseAddr(fmt.Sprintf("2001:db8:10::%d", i+1)))
		r.AddInterface(l1).AddAddr(ipv6.MustParseAddr(fmt.Sprintf("2001:db8:11::%d", i+1)))
	}
	dom.Recompute()
	for _, nd := range net.Nodes {
		eng := pimdm.New(nd, pimdm.DefaultConfig(), dom.TableOf(nd))
		mr := mld.NewRouter(nd, mld.FastConfig(30*time.Second))
		e := eng
		mr.OnListenerChange = func(ev mld.ListenerEvent) {
			e.HandleListenerChange(ev.Iface, ev.Group, ev.Present)
		}
	}
	m := net.NewNode("m", false)
	mifc := m.AddInterface(l1)
	mifc.AddAddr(ipv6.MustParseAddr("2001:db8:11::99"))
	mld.NewHost(m, mld.DefaultHostConfig()).Join(mifc, group)
	received := 0
	m.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) { received++ })

	src := net.NewNode("src", false)
	sifc := src.AddInterface(l0)
	sAddr := ipv6.MustParseAddr("2001:db8:10::50")
	sifc.AddAddr(sAddr)
	sent := 0
	sim.NewTicker(s, 100*time.Millisecond, 0, func() {
		sent++
		u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: []byte("x")}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: sAddr, Dst: group, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(sAddr, group),
		}
		_ = src.OutputOn(sifc, pkt)
	})

	// 15 min = 5 assert-expiry cycles.
	s.RunUntil(sim.Time(15 * time.Minute))
	dupRate := float64(received-sent) / float64(sent)
	if dupRate < 0 {
		t.Fatalf("lost traffic: received %d < sent %d", received, sent)
	}
	if dupRate > 0.02 {
		t.Fatalf("duplicate rate %.4f across assert expiry cycles", dupRate)
	}
}

func TestHelloNeighborDiscovery(t *testing.T) {
	f := newFig1(7, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.s.RunUntil(sim.Time(5 * time.Second))
	// D sees B and C on L3.
	var dL3 *netem.Interface
	for _, ifc := range f.routers["D"].Ifaces {
		if ifc.Link == f.links["L3"] {
			dL3 = ifc
		}
	}
	if n := f.engines["D"].NeighborCount(dL3); n != 2 {
		t.Fatalf("D sees %d neighbors on L3, want 2 (B, C)", n)
	}
	// E's L6 interface has none.
	var eL6 *netem.Interface
	for _, ifc := range f.routers["E"].Ifaces {
		if ifc.Link == f.links["L6"] {
			eL6 = ifc
		}
	}
	if f.engines["E"].HasNeighbors(eL6) {
		t.Fatal("E claims neighbors on the leaf link L6")
	}
}

func TestNeighborExpiryAfterSilence(t *testing.T) {
	f := newFig1(8, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.s.RunUntil(sim.Time(5 * time.Second))
	var eL5 *netem.Interface
	for _, ifc := range f.routers["E"].Ifaces {
		if ifc.Link == f.links["L5"] {
			eL5 = ifc
		}
	}
	if !f.engines["E"].HasNeighbors(eL5) {
		t.Fatal("E does not see D on L5")
	}
	// D leaves L5 (interface moved away): neighbor must expire after the
	// hello holdtime.
	var dL5 *netem.Interface
	for _, ifc := range f.routers["D"].Ifaces {
		if ifc.Link == f.links["L5"] {
			dL5 = ifc
		}
	}
	parking := f.net.NewLink("parking", 0, 0)
	f.net.Move(dL5, parking)
	f.s.RunUntil(sim.Time(5*time.Second) + sim.Time(pimdm.DefaultConfig().HelloHoldtime) + sim.Time(10*time.Second))
	if f.engines["E"].HasNeighbors(eL5) {
		t.Fatal("E still sees D after holdtime expiry")
	}
}

func TestStaleSourceTriggersAssert(t *testing.T) {
	// The paper §4.3.1: a mobile sender that moved to a link on the tree
	// and keeps its old source address makes the forwarding router believe
	// there is a loop, triggering an assert process.
	f := newFig1(9, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	sn, tick, sAddr := f.addSender("s0", "L1", 100*time.Millisecond)
	f.addReceiver("r3", "L4")
	f.s.RunUntil(sim.Time(20 * time.Second))
	assertsBefore := f.engines["D"].Stats.AssertsSent

	// Move the sender's interface to L4 (a link D forwards onto) but keep
	// sending with the stale L1 source address (movement not yet detected).
	f.net.Move(sn.Ifaces[0], f.links["L4"])
	f.s.RunUntil(sim.Time(30 * time.Second))
	tick.Stop()

	if got := f.engines["D"].Stats.AssertsSent; got <= assertsBefore {
		t.Fatalf("D sent no asserts (%d -> %d) against stale-addressed sender", assertsBefore, got)
	}
	_ = sAddr
}

func TestDenseModeReflood(t *testing.T) {
	// Prune state expires after PruneHoldtime: traffic re-floods briefly
	// onto pruned links, then is pruned again. Use short holdtimes.
	cfg := pimdm.DefaultConfig()
	cfg.PruneHoldtime = 20 * time.Second
	cfg.DataTimeout = 10 * time.Minute
	f := newFig1(10, cfg, mld.FastConfig(30*time.Second))
	f.addSender("s0", "L1", 100*time.Millisecond)
	f.addReceiver("r3", "L4")
	onL5 := f.countData("L5")
	f.s.RunUntil(sim.Time(15 * time.Second))
	flood1 := *onL5
	if flood1 == 0 {
		t.Fatal("no initial flood onto L5")
	}
	f.s.RunUntil(sim.Time(45 * time.Second))
	if *onL5 <= flood1 {
		t.Fatalf("no re-flood after prune holdtime: %d -> %d", flood1, *onL5)
	}
}

func TestMLDControlTrafficNotRouted(t *testing.T) {
	// MLD reports go to the (routable-scope) group address but with
	// link-local sources: PIM must not create state for them or forward.
	f := newFig1(11, pimdm.DefaultConfig(), mld.FastConfig(10*time.Second))
	f.addReceiver("r3", "L4")
	f.s.RunUntil(sim.Time(2 * time.Minute))
	for name, e := range f.engines {
		if n := e.EntryCount(); n != 0 {
			t.Errorf("%s created %d (S,G) entries from MLD control traffic", name, n)
		}
	}
	// And reports must not leak across routers: L3 carries no ICMPv6
	// destined to the group.
	leaked := 0
	f.links["L3"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoICMPv6 && ev.Pkt.Hdr.Dst == group {
			leaked++
		}
	})
	f.s.RunUntil(sim.Time(4 * time.Minute))
	if leaked > 0 {
		t.Errorf("%d MLD reports leaked onto L3", leaked)
	}
}

func TestHelloPacketShape(t *testing.T) {
	f := newFig1(12, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	checked := false
	f.links["L3"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoPIM {
			return
		}
		msg, err := pimdm.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload)
		if err != nil {
			t.Errorf("unparseable PIM on wire: %v", err)
			return
		}
		if msg.Type != pimdm.TypeHello {
			return
		}
		checked = true
		if ev.Pkt.Hdr.HopLimit != 1 {
			t.Errorf("hello hop limit = %d", ev.Pkt.Hdr.HopLimit)
		}
		if ev.Pkt.Hdr.Dst != ipv6.AllPIMRouters {
			t.Errorf("hello to %s", ev.Pkt.Hdr.Dst)
		}
		if !ev.Pkt.Hdr.Src.IsLinkLocalUnicast() {
			t.Errorf("hello from %s", ev.Pkt.Hdr.Src)
		}
	})
	f.s.RunUntil(sim.Time(time.Minute))
	if !checked {
		t.Fatal("no hellos observed on L3")
	}
}

func TestNodeLocalMembership(t *testing.T) {
	// AddLocalMember (the home-agent hook) must keep the router grafted
	// even with no link members anywhere downstream.
	f := newFig1(13, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.addSender("s0", "L1", 100*time.Millisecond)
	received := 0
	f.routers["D"].BindUDP(9000, func(netem.RxPacket, ipv6.UDP) { received++ })
	f.engines["D"].AddLocalMember(group)
	f.s.RunUntil(sim.Time(30 * time.Second))
	if received < 250 {
		t.Fatalf("D received %d datagrams as node-local member", received)
	}
	// Remove: D prunes upstream; traffic to D stops.
	f.engines["D"].RemoveLocalMember(group)
	f.s.RunUntil(sim.Time(40 * time.Second))
	base := received
	f.s.RunUntil(sim.Time(70 * time.Second))
	if received > base {
		t.Fatalf("D still receiving after local member removed: %d -> %d", base, received)
	}
}

// Guard: MLD queries on leaf links should not be disturbed by PIM; quick
// sanity that both protocols coexist (shared ICMPv6 handlers etc).
func TestCoexistenceWithMLDQuerier(t *testing.T) {
	f := newFig1(14, pimdm.DefaultConfig(), mld.FastConfig(10*time.Second))
	queries := 0
	f.links["L4"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoICMPv6 {
			return
		}
		if m, err := icmpv6.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload); err == nil {
			if m.Type == icmpv6.TypeMLDQuery {
				queries++
			}
		}
	})
	f.s.RunUntil(sim.Time(2 * time.Minute))
	if queries < 10 {
		t.Fatalf("only %d MLD queries on L4 in 2min with T_Query=10s", queries)
	}
}
