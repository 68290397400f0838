package mldproxy

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

var (
	group  = ipv6.MustParseAddr("ff0e::101")
	group2 = ipv6.MustParseAddr("ff0e::102")
	srcA   = ipv6.MustParseAddr("2001:db8:beef::1")
)

// fixture is one proxy between an upstream link (with an MLD querier
// standing in for the anchor) and two downstream links.
type fixture struct {
	s    *sim.Scheduler
	net  *netem.Network
	up   *netem.Link
	d1   *netem.Link
	d2   *netem.Link
	node *netem.Node
	p    *Proxy

	anchorMLD *mld.Router
	events    []mld.ListenerEvent
}

func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	f := &fixture{s: sim.NewScheduler(seed)}
	f.net = netem.New(f.s)
	f.up = f.net.NewLink("UP", 0, time.Millisecond)
	f.d1 = f.net.NewLink("D1", 0, time.Millisecond)
	f.d2 = f.net.NewLink("D2", 0, time.Millisecond)

	f.node = f.net.NewNode("P", true)
	f.node.AddInterface(f.up)
	f.node.AddInterface(f.d1)
	f.node.AddInterface(f.d2)

	anchor := f.net.NewNode("ANCHOR", true)
	anchor.AddInterface(f.up)
	f.anchorMLD = mld.NewRouter(anchor, mld.DefaultConfig())
	f.anchorMLD.OnListenerChange = func(ev mld.ListenerEvent) {
		f.events = append(f.events, ev)
	}

	p, err := New(f.node, Config{
		Upstream:   "UP",
		Downstream: []string{"D1", "D2"},
		Anchor:     "ANCHOR",
		Depth:      1,
		HostMLD:    mld.DefaultHostConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.p = p
	return f
}

// runFor advances the clock by d. (The querier's periodic timers never
// drain, so the open-ended scheduler Run cannot be used here.)
func (f *fixture) runFor(d time.Duration) {
	f.s.RunUntil(f.s.Now() + sim.Time(d))
}

func (f *fixture) iface(l *netem.Link) *netem.Interface {
	for _, ifc := range f.node.Ifaces {
		if ifc.Link == l {
			return ifc
		}
	}
	return nil
}

// tapGroupData counts data-plane copies for the test group on a link.
func (f *fixture) tapGroupData(l *netem.Link) *int {
	n := new(int)
	l.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Hdr.Dst == group && ev.Pkt.Proto != ipv6.ProtoICMPv6 {
			*n++
		}
	})
	return n
}

func TestNewRequiresUpstreamInterface(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	d := net.NewLink("D1", 0, 0)
	n := net.NewNode("P", true)
	n.AddInterface(d)
	if _, err := New(n, Config{Upstream: "UP", Downstream: []string{"D1"}}); err == nil {
		t.Fatal("New accepted a node with no upstream interface")
	}
}

func TestAggregationJoinsUpstreamOnce(t *testing.T) {
	f := newFixture(t, 1)
	d1, d2 := f.iface(f.d1), f.iface(f.d2)

	// First downstream listener: the proxy joins upstream like a host.
	f.s.Schedule(time.Second, func() { f.p.HandleListenerChange(d1, group, true) })
	f.s.RunUntil(sim.Time(2 * time.Second))
	if len(f.events) != 1 || !f.events[0].Present || f.events[0].Group != group {
		t.Fatalf("after first listener, anchor events = %+v", f.events)
	}
	if n := f.p.EntryCount(); n != 1 {
		t.Fatalf("EntryCount = %d", n)
	}
	ent := f.p.Entries()
	if len(ent) != 1 || ent[0].Upstream != "UP" {
		t.Fatalf("Entries = %+v", ent)
	}
	if got := strings.Join(ent[0].ForwardingOn, ","); got != "D1" {
		t.Fatalf("ForwardingOn = %q, want D1", got)
	}

	// Second downstream link: aggregated — no second upstream join.
	f.s.Schedule(0, func() { f.p.HandleListenerChange(d2, group, true) })
	f.s.RunUntil(sim.Time(4 * time.Second))
	if len(f.events) != 1 {
		t.Fatalf("second downstream listener re-signaled upstream: %+v", f.events)
	}
	ent = f.p.Entries()
	if got := strings.Join(ent[0].ForwardingOn, ","); got != "D1,D2" {
		t.Fatalf("ForwardingOn = %q, want D1,D2", got)
	}

	// Draining one link keeps the aggregate; draining the last leaves.
	f.s.Schedule(0, func() { f.p.HandleListenerChange(d1, group, false) })
	f.s.RunUntil(sim.Time(6 * time.Second))
	if len(f.events) != 1 {
		t.Fatalf("partial drain leaked a leave: %+v", f.events)
	}
	f.s.Schedule(0, func() { f.p.HandleListenerChange(d2, group, false) })
	// Done + last-listener query resolve within LLQT (2 s) + margin.
	f.s.RunUntil(sim.Time(12 * time.Second))
	if len(f.events) != 2 || f.events[1].Present {
		t.Fatalf("after full drain, anchor events = %+v", f.events)
	}
	if n := f.p.EntryCount(); n != 0 {
		t.Fatalf("EntryCount after drain = %d", n)
	}
	if f.p.AggregatedHighWater() != 1 {
		t.Fatalf("high water = %d, want 1", f.p.AggregatedHighWater())
	}
	st := f.p.MulticastStats()
	if st.JoinsSent != 1 || st.PrunesSent != 1 || st.EntriesCreated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalMemberRefcount(t *testing.T) {
	f := newFixture(t, 2)

	f.s.Schedule(time.Second, func() {
		f.p.AddLocalMember(group)
		f.p.AddLocalMember(group)
	})
	f.s.RunUntil(sim.Time(2 * time.Second))
	if !f.p.HasLocalMember(group) {
		t.Fatal("local member not recorded")
	}
	if len(f.events) != 1 || !f.events[0].Present {
		t.Fatalf("anchor events = %+v", f.events)
	}

	// The first remove only drops the refcount.
	f.s.Schedule(0, func() { f.p.RemoveLocalMember(group) })
	f.s.RunUntil(sim.Time(4 * time.Second))
	if !f.p.HasLocalMember(group) || f.p.EntryCount() != 1 {
		t.Fatal("refcounted member vanished early")
	}
	f.s.Schedule(0, func() { f.p.RemoveLocalMember(group) })
	f.s.RunUntil(sim.Time(12 * time.Second))
	if f.p.HasLocalMember(group) || f.p.EntryCount() != 0 {
		t.Fatal("local member survived final remove")
	}
	if len(f.events) != 2 || f.events[1].Present {
		t.Fatalf("anchor events = %+v", f.events)
	}

	// Removing a member that was never added is a no-op.
	f.p.RemoveLocalMember(group2)
	if f.p.EntryCount() != 0 {
		t.Fatal("phantom remove created state")
	}
}

func TestForwardMulticastDataPlane(t *testing.T) {
	f := newFixture(t, 3)
	up, d1, d2 := f.iface(f.up), f.iface(f.d1), f.iface(f.d2)
	nUp, nD1, nD2 := f.tapGroupData(f.up), f.tapGroupData(f.d1), f.tapGroupData(f.d2)

	f.p.HandleListenerChange(d1, group, true)

	pkt := func(hops uint8) *ipv6.Packet {
		return &ipv6.Packet{
			Hdr:     ipv6.Header{Src: srcA, Dst: group, HopLimit: hops},
			Proto:   ipv6.ProtoUDP,
			Payload: []byte{0, 9, 0, 9, 0, 12, 0, 0, 'd', 'a', 't', 'a'},
		}
	}

	// From upstream: replicated onto member downstream links only.
	f.p.ForwardMulticast(netem.RxPacket{Iface: up, Pkt: pkt(4)})
	f.runFor(10 * time.Millisecond)
	if *nD1 != 1 || *nD2 != 0 || *nUp != 0 {
		t.Fatalf("from upstream: up=%d d1=%d d2=%d", *nUp, *nD1, *nD2)
	}

	// From a downstream link: upstream unconditionally (RFC 4605 §4.3)
	// plus the other member links, never echoed onto the arrival link.
	f.p.ForwardMulticast(netem.RxPacket{Iface: d2, Pkt: pkt(4)})
	f.runFor(10 * time.Millisecond)
	if *nUp != 1 || *nD1 != 2 || *nD2 != 0 {
		t.Fatalf("from downstream: up=%d d1=%d d2=%d", *nUp, *nD1, *nD2)
	}

	// Hop limit exhausted: dropped.
	f.p.ForwardMulticast(netem.RxPacket{Iface: up, Pkt: pkt(1)})
	f.runFor(10 * time.Millisecond)
	if *nD1 != 2 {
		t.Fatalf("hop-limit-1 packet forwarded (d1=%d)", *nD1)
	}

	// Link-local sources are never proxied.
	ll := pkt(4)
	ll.Hdr.Src = ipv6.MustParseAddr("fe80::1")
	f.p.ForwardMulticast(netem.RxPacket{Iface: up, Pkt: ll})
	f.runFor(10 * time.Millisecond)
	if *nD1 != 2 {
		t.Fatalf("link-local-sourced packet forwarded (d1=%d)", *nD1)
	}

	// An interface outside the configured tree is refused.
	x := f.net.NewLink("X", 0, time.Millisecond)
	xi := f.node.AddInterface(x)
	f.p.ForwardMulticast(netem.RxPacket{Iface: xi, Pkt: pkt(4)})
	f.runFor(10 * time.Millisecond)
	st := f.p.MulticastStats()
	if st.RPFFailures != 1 {
		t.Fatalf("RPFFailures = %d, want 1", st.RPFFailures)
	}
	if *nUp != 1 || *nD1 != 2 {
		t.Fatalf("foreign-interface packet forwarded: up=%d d1=%d", *nUp, *nD1)
	}
	if st.DataForwarded != 3 {
		t.Fatalf("DataForwarded = %d, want 3", st.DataForwarded)
	}
}

func TestCloseAbandonsStateSilently(t *testing.T) {
	f := newFixture(t, 4)
	d1 := f.iface(f.d1)
	nD1 := f.tapGroupData(f.d1)

	dones := 0
	f.up.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoICMPv6 {
			return
		}
		if m, err := icmpv6.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload); err == nil {
			if m.Type == icmpv6.TypeMLDDone {
				dones++
			}
		}
	})

	f.s.Schedule(time.Second, func() { f.p.HandleListenerChange(d1, group, true) })
	f.s.RunUntil(sim.Time(2 * time.Second))
	if len(f.events) != 1 {
		t.Fatalf("anchor never learned the membership: %+v", f.events)
	}

	// Crash: no Done on the wire — the upstream querier must age the
	// state out on its own, exactly as for a vanished host.
	f.s.Schedule(0, func() { f.p.Close() })
	f.s.RunUntil(sim.Time(10 * time.Second))
	if dones != 0 {
		t.Fatalf("Close sent %d Done messages; crash teardown must be silent", dones)
	}
	if f.p.EntryCount() != 0 {
		t.Fatalf("closed proxy still holds %d entries", f.p.EntryCount())
	}

	// A closed proxy ignores all input.
	f.p.HandleListenerChange(d1, group2, true)
	f.p.AddLocalMember(group2)
	if f.p.EntryCount() != 0 || f.p.HasLocalMember(group2) {
		t.Fatal("closed proxy accepted membership input")
	}
	f.p.ForwardMulticast(netem.RxPacket{
		Iface: f.iface(f.up),
		Pkt:   &ipv6.Packet{Hdr: ipv6.Header{Src: srcA, Dst: group, HopLimit: 4}, Proto: ipv6.ProtoUDP},
	})
	f.runFor(10 * time.Millisecond)
	if *nD1 != 0 {
		t.Fatal("closed proxy forwarded data")
	}
	f.p.Close() // idempotent
}

func TestCheckpointRoundTrip(t *testing.T) {
	f := newFixture(t, 5)
	d1 := f.iface(f.d1)

	f.s.Schedule(time.Second, func() {
		f.p.HandleListenerChange(d1, group, true)
		f.p.AddLocalMember(group)
	})
	f.s.RunUntil(sim.Time(2 * time.Second))

	cp := f.p.Checkpoint()
	if cp.Engine != EngineName || cp.Node != "P" {
		t.Fatalf("checkpoint header = %q/%q", cp.Engine, cp.Node)
	}
	wantNb := "down/D1,down/D2,up/UP"
	if got := strings.Join(cp.Neighbors, ","); got != wantNb {
		t.Fatalf("Neighbors = %q, want %q", got, wantNb)
	}
	wantLM := "ff0e::101@-=1,ff0e::101@D1=1"
	if got := strings.Join(cp.LocalMembers, ","); got != wantLM {
		t.Fatalf("LocalMembers = %q, want %q", got, wantLM)
	}
	if len(cp.Entries) != 1 || cp.Entries[0].Group != group {
		t.Fatalf("Entries = %+v", cp.Entries)
	}

	// Verify-and-adopt: matching state verifies cleanly...
	if err := engine.VerifyCheckpoint(cp, f.p.Checkpoint()); err != nil {
		t.Fatalf("verifying own checkpoint failed: %v", err)
	}
	// ...and any divergence is a descriptive error, not silent adoption.
	f.p.RemoveLocalMember(group)
	if err := engine.VerifyCheckpoint(cp, f.p.Checkpoint()); err == nil {
		t.Fatal("VerifyCheckpoint accepted diverged state")
	}
}

func TestObsBaselineOnAttach(t *testing.T) {
	f := newFixture(t, 6)
	d1 := f.iface(f.d1)
	f.s.Schedule(time.Second, func() { f.p.HandleListenerChange(d1, group, true) })
	f.s.RunUntil(sim.Time(2 * time.Second))

	f.p.AttachRecorder(nil) // must tolerate nil
	if f.p.DownstreamLinks()[0] != "D1" {
		t.Fatalf("DownstreamLinks = %v", f.p.DownstreamLinks())
	}
	if f.p.UpstreamLink() != "UP" {
		t.Fatalf("UpstreamLink = %q", f.p.UpstreamLink())
	}
	if f.p.Host() == nil {
		t.Fatal("Host() returned nil")
	}
}
