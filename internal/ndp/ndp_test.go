package ndp

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// twoLinks builds host --- L1[R1] ... L2[R2] with prefixes 1 and 2.
func twoLinks(seed int64) (*sim.Scheduler, *netem.Network, *netem.Link, *netem.Link, map[*netem.Link]ipv6.Addr) {
	s := sim.NewScheduler(seed)
	net := netem.New(s)
	l1 := net.NewLink("L1", 0, time.Millisecond)
	l2 := net.NewLink("L2", 0, time.Millisecond)
	prefixes := map[*netem.Link]ipv6.Addr{
		l1: ipv6.MustParseAddr("2001:db8:1::"),
		l2: ipv6.MustParseAddr("2001:db8:2::"),
	}
	for i, l := range []*netem.Link{l1, l2} {
		r := net.NewNode(fmt.Sprintf("R%d", i+1), true)
		r.AddInterface(l)
		NewRouter(r, DefaultRouterConfig(), func(ifc *netem.Interface) (ipv6.Addr, bool) {
			p, ok := prefixes[ifc.Link]
			return p, ok
		})
	}
	return s, net, l1, l2, prefixes
}

func TestSLAACOnAttach(t *testing.T) {
	s, net, l1, _, _ := twoLinks(1)
	h := net.NewNode("h", false)
	ifc := h.AddInterface(l1)

	var events []PrefixEvent
	host := NewHost(h, 0x42)
	host.OnPrefix = func(ev PrefixEvent) { events = append(events, ev) }
	host.solicit(ifc) // NewHost already solicited pre-attached ifaces; harmless again

	s.RunUntil(sim.Time(5 * time.Second))
	if len(events) != 1 {
		t.Fatalf("got %d prefix events, want 1 (same prefix must not re-fire): %+v", len(events), events)
	}
	ev := events[0]
	want := ipv6.MustParseAddr("2001:db8:1::42")
	if ev.Addr != want || ev.Moved {
		t.Fatalf("event = %+v, want addr %s, not moved", ev, want)
	}
	if !ifc.HasAddr(want) {
		t.Fatal("SLAAC address not configured on interface")
	}
	if host.Addr(ifc) != want {
		t.Fatalf("Addr() = %s", host.Addr(ifc))
	}
}

func TestSolicitedRAFasterThanPeriodic(t *testing.T) {
	// With a long unsolicited interval, configuration must still happen
	// quickly via RS -> solicited RA.
	s := sim.NewScheduler(3)
	net := netem.New(s)
	l := net.NewLink("L", 0, time.Millisecond)
	r := net.NewNode("R", true)
	r.AddInterface(l)
	cfg := DefaultRouterConfig()
	cfg.AdvInterval = 10 * time.Minute
	cfg.SolicitedDelayMax = 100 * time.Millisecond
	prefix := ipv6.MustParseAddr("2001:db8:7::")
	NewRouter(r, cfg, func(*netem.Interface) (ipv6.Addr, bool) { return prefix, true })

	h := net.NewNode("h", false)
	var configuredAt sim.Time
	host := NewHost(h, 7)
	host.OnPrefix = func(PrefixEvent) { configuredAt = s.Now() }
	// Attach after creation to exercise the OnAttach hook.
	net.Move(hIface(h, l, net), l)
	_ = host

	s.RunUntil(sim.Time(30 * time.Second))
	if configuredAt == 0 {
		t.Fatal("never configured")
	}
	if configuredAt > sim.Time(time.Second) {
		t.Fatalf("configured at %v; solicited RA path too slow", configuredAt)
	}
}

// hIface adds an interface for h without attaching it first elsewhere.
func hIface(h *netem.Node, l *netem.Link, net *netem.Network) *netem.Interface {
	return h.AddInterface(l)
}

func TestMovementDetection(t *testing.T) {
	s, net, l1, l2, _ := twoLinks(5)
	h := net.NewNode("h", false)
	ifc := h.AddInterface(l1)
	var events []PrefixEvent
	var eventTimes []sim.Time
	host := NewHost(h, 0x99)
	host.OnPrefix = func(ev PrefixEvent) {
		events = append(events, ev)
		eventTimes = append(eventTimes, s.Now())
	}

	s.RunUntil(sim.Time(5 * time.Second))
	if len(events) != 1 {
		t.Fatalf("initial config events = %d", len(events))
	}
	oldAddr := events[0].Addr

	var movedAt sim.Time
	s.Schedule(0, func() { net.Move(ifc, l2); movedAt = s.Now() })
	s.RunUntil(sim.Time(30 * time.Second))
	if len(events) != 2 {
		t.Fatalf("events after move = %d, want 2", len(events))
	}
	ev := events[1]
	if !ev.Moved {
		t.Error("second event not flagged as movement")
	}
	if ev.Addr != ipv6.MustParseAddr("2001:db8:2::99") {
		t.Errorf("care-of address = %s", ev.Addr)
	}
	if ifc.HasAddr(oldAddr) {
		t.Error("old SLAAC address still configured after move")
	}
	if !ifc.HasAddr(ev.Addr) {
		t.Error("new address not configured")
	}
	window := eventTimes[1].Sub(movedAt)
	// Movement detection should complete within RS + solicited-RA delay +
	// propagation, well under two advertising intervals.
	if window > 3*time.Second {
		t.Errorf("movement detection window %v too long", window)
	}
}

func TestPeriodicAdvertisementsKeepComing(t *testing.T) {
	s, net, l1, _, _ := twoLinks(7)
	count := 0
	l1.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoICMPv6 && ev.Pkt.Hdr.Dst == ipv6.AllNodes {
			count++
		}
	})
	_ = net
	s.RunUntil(sim.Time(30 * time.Second))
	// Interval 1s + up to .5s jitter over 30s: at least 15.
	if count < 15 {
		t.Fatalf("only %d RAs in 30s", count)
	}
}

func TestHostIgnoresNonAutonomousPrefix(t *testing.T) {
	s := sim.NewScheduler(9)
	net := netem.New(s)
	l := net.NewLink("L", 0, 0)
	r := net.NewNode("R", true)
	rifc := r.AddInterface(l)
	h := net.NewNode("h", false)
	h.AddInterface(l)
	host := NewHost(h, 1)
	fired := false
	host.OnPrefix = func(PrefixEvent) { fired = true }

	sendRA(r, rifc, false)
	s.Run()
	if fired {
		t.Fatal("host configured from non-autonomous prefix")
	}
	sendRA(r, rifc, true)
	s.Run()
	if !fired {
		t.Fatal("host ignored autonomous prefix")
	}
}

// sendRA hand-crafts a Router Advertisement with the A flag controlled.
func sendRA(r *netem.Node, ifc *netem.Interface, autonomous bool) {
	src := ifc.LinkLocal()
	ra := &icmpv6.RouterAdvert{RouterLifetime: time.Minute}
	ra.AddPrefix(icmpv6.PrefixInfo{
		PrefixLen:     64,
		OnLink:        true,
		Autonomous:    autonomous,
		ValidLifetime: time.Hour,
		Prefix:        ipv6.MustParseAddr("2001:db8:9::"),
	})
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: ipv6.AllNodes, HopLimit: 255},
		Proto:   ipv6.ProtoICMPv6,
		Payload: icmpv6.Marshal(src, ipv6.AllNodes, ra),
	}
	_ = r.OutputOn(ifc, pkt)
}
