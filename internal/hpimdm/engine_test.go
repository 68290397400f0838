package hpimdm_test

// Unit tests for the hard-state engine: config plumbing, reliable
// interest/no-interest declarations on a line topology, steady-state
// silence (the property that separates HPIM-DM from soft-state PIM-DM),
// and restart resynchronization via Hello Generation IDs.

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/hpimdm"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

var group = ipv6.MustParseAddr("ff0e::101")

// line builds S -- L1 -- A -- L2 -- B -- L3 (receiver LAN): two routers,
// a CBR sender on L1, and direct HandleListenerChange calls standing in
// for MLD on B's L3 interface.
type line struct {
	s       *sim.Scheduler
	net     *netem.Network
	dom     *routing.Domain
	links   map[string]*netem.Link
	a, b    *hpimdm.Engine
	an, bn  *netem.Node
	srcTick *sim.Ticker
	src     ipv6.Addr
}

func newLine(seed int64, cfg pimdm.Config) *line {
	f := &line{
		s:     sim.NewScheduler(seed),
		links: map[string]*netem.Link{},
	}
	f.net = netem.New(f.s)
	for _, ln := range []string{"L1", "L2", "L3"} {
		f.links[ln] = f.net.NewLink(ln, 0, time.Millisecond)
	}
	f.dom = routing.NewDomain(f.net)
	for i, ln := range []string{"L1", "L2", "L3"} {
		f.dom.AssignPrefix(f.links[ln], ipv6.MustParseAddr("2001:db8:"+string(rune('1'+i))+"::"))
	}
	f.an = f.net.NewNode("A", true)
	f.bn = f.net.NewNode("B", true)
	for _, ln := range []string{"L1", "L2"} {
		ifc := f.an.AddInterface(f.links[ln])
		p, _ := f.dom.PrefixOf(f.links[ln])
		ifc.AddAddr(p.WithInterfaceID('A'))
	}
	for _, ln := range []string{"L2", "L3"} {
		ifc := f.bn.AddInterface(f.links[ln])
		p, _ := f.dom.PrefixOf(f.links[ln])
		ifc.AddAddr(p.WithInterfaceID('B'))
	}
	f.dom.Recompute()
	f.a = hpimdm.New(f.an, cfg, f.dom.TableOf(f.an))
	f.b = hpimdm.New(f.bn, cfg, f.dom.TableOf(f.bn))

	sender := f.net.NewNode("S", false)
	ifc := sender.AddInterface(f.links["L1"])
	p, _ := f.dom.PrefixOf(f.links["L1"])
	f.src = p.WithInterfaceID(0x5000)
	ifc.AddAddr(f.src)
	f.srcTick = sim.NewTicker(f.s, 100*time.Millisecond, 0, func() {
		u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: make([]byte, 64)}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: f.src, Dst: group, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(f.src, group),
		}
		_ = sender.OutputOn(ifc, pkt)
	})
	return f
}

// ifaceOn returns the node's interface attached to the named link.
func ifaceOn(n *netem.Node, link string) *netem.Interface {
	for _, ifc := range n.Ifaces {
		if ifc.Link.Name == link {
			return ifc
		}
	}
	return nil
}

// countData counts multicast data frames on a link.
func (f *line) countData(link string) *int {
	n := new(int)
	f.links[link].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == group {
			(*n)++
		}
	})
	return n
}

// countDecl counts HPIM declaration messages of the given kinds on a link.
func (f *line) countDecl(link string, kinds ...uint8) *int {
	n := new(int)
	f.links[link].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoPIM {
			return
		}
		msg, err := pimdm.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload)
		if err != nil {
			return
		}
		for _, k := range kinds {
			if msg.Type == k {
				(*n)++
			}
		}
	})
	return n
}

// New validates the PIM-DM timer set it runs on: GraftRetry, the
// declaration retry period, must be positive like the hello timers.
func TestNewValidatesConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*pimdm.Config)
	}{
		{"HelloInterval", func(c *pimdm.Config) { c.HelloInterval = 0 }},
		{"GraftRetry", func(c *pimdm.Config) { c.GraftRetry = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("New accepted an invalid config; want panic")
				}
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), tc.name) {
					t.Errorf("panic %v does not name %s", r, tc.name)
				}
			}()
			s := sim.NewScheduler(1)
			net := netem.New(s)
			l := net.NewLink("L1", 0, time.Millisecond)
			n := net.NewNode("A", true)
			n.AddInterface(l)
			dom := routing.NewDomain(net)
			dom.AssignPrefix(l, ipv6.MustParseAddr("2001:db8:1::"))
			dom.Recompute()
			cfg := pimdm.DefaultConfig()
			tc.mutate(&cfg)
			hpimdm.New(n, cfg, dom.TableOf(n))
		})
	}
}

// An unacknowledged declaration is retransmitted every GraftRetry of the
// PIM-DM timer set: with every frame on L2 dropped, B's Interest goes out
// again and again, GraftRetry apart.
func TestDeclarationRetriesEveryGraftRetry(t *testing.T) {
	cfg := pimdm.DefaultConfig()
	cfg.GraftRetry = 7 * time.Second
	f := newLine(15, cfg)
	f.s.RunFor(5 * time.Second) // B has declared NoInterest and A acked it
	var sent []sim.Time
	f.links["L2"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoPIM {
			return
		}
		if msg, err := pimdm.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload); err == nil && msg.Type == pimdm.TypeInterest {
			sent = append(sent, f.s.Now())
		}
	})
	f.links["L2"].LossRate = 1
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, true)
	f.s.RunFor(30 * time.Second)
	if len(sent) < 4 {
		t.Fatalf("%d Interest transmissions in 30 s with every frame dropped, want at least 4", len(sent))
	}
	for i := 1; i < len(sent); i++ {
		if gap := sent[i].Sub(sent[i-1]); gap != cfg.GraftRetry {
			t.Errorf("Interest %d sent %v after the previous one, want GraftRetry %v", i, gap, cfg.GraftRetry)
		}
	}
}

// The hard-state core: a downstream NoInterest stops forwarding without
// any holdtime, an Interest restores it, and acks make both reliable.
func TestInterestControlsForwarding(t *testing.T) {
	f := newLine(11, pimdm.DefaultConfig())
	onL3 := f.countData("L3")
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, true)
	f.s.RunFor(5 * time.Second)
	if *onL3 == 0 {
		t.Fatal("no data reached the member LAN")
	}

	// Leave: B declares NoInterest to A; A must stop forwarding L2 and the
	// member LAN goes quiet (allow in-flight packets to drain).
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, false)
	f.s.RunFor(2 * time.Second)
	before := *onL3
	f.s.RunFor(10 * time.Second)
	if *onL3 != before {
		t.Errorf("data still flowing to L3 after NoInterest: %d -> %d", before, *onL3)
	}

	// Rejoin: B declares Interest; flow must resume.
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, true)
	f.s.RunFor(2 * time.Second)
	resumed := *onL3
	if resumed == before {
		t.Error("data did not resume after Interest")
	}
	for _, sg := range f.b.Entries() {
		if sg.PrunedUpstream || sg.GraftPending {
			t.Errorf("B entry not settled: %+v", sg)
		}
	}
}

// Steady-state silence: once interest state is synchronized and acked, a
// stable tree exchanges no further declarations — where soft-state PIM-DM
// re-floods on every holdtime expiry and State Refresh round.
func TestNoPeriodicDeclarationsWhenStable(t *testing.T) {
	f := newLine(12, pimdm.DefaultConfig())
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, true)
	f.s.RunFor(10 * time.Second) // settle
	decls := f.countDecl("L2", pimdm.TypeInterest, pimdm.TypeNoInterest, pimdm.TypeDeclAck)
	f.s.RunFor(60 * time.Second)
	if *decls != 0 {
		t.Errorf("%d declarations on a stable tree over 60s, want 0", *decls)
	}
	if n := f.a.MulticastStats().Retransmits; n != 0 {
		t.Errorf("A retransmitted %d times on a loss-free link, want 0", n)
	}
}

// Hellos must carry a non-zero Generation ID so peers can detect a
// restart and resynchronize hard state.
func TestHelloCarriesGenerationID(t *testing.T) {
	f := newLine(13, pimdm.DefaultConfig())
	seen := 0
	f.links["L2"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoPIM {
			return
		}
		msg, err := pimdm.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload)
		if err != nil {
			return
		}
		if msg.Type == pimdm.TypeHello {
			seen++
			if msg.Hello.GenID == 0 {
				t.Error("hpimdm hello without Generation ID")
			}
		}
	})
	f.s.RunFor(35 * time.Second)
	if seen == 0 {
		t.Fatal("no hellos observed on L2")
	}
}

// Reliability under loss: declarations retransmit until acked, so the
// tree still converges when the control link drops most packets for a
// while.
func TestDeclarationRetransmitUnderLoss(t *testing.T) {
	f := newLine(14, pimdm.DefaultConfig())
	f.s.RunFor(5 * time.Second) // neighbors up, flood running
	f.links["L2"].LossRate = 0.7
	f.b.HandleListenerChange(ifaceOn(f.bn, "L3"), group, true)
	f.s.RunFor(30 * time.Second)
	f.links["L2"].LossRate = 0
	f.s.RunFor(10 * time.Second)
	onL3 := f.countData("L3")
	f.s.RunFor(5 * time.Second)
	if *onL3 == 0 {
		t.Error("interest lost under 70% loss never recovered")
	}
	for _, sg := range f.b.Entries() {
		if sg.GraftPending {
			t.Errorf("B declaration still unacked after heal: %+v", sg)
		}
	}
}
