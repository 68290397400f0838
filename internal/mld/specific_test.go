package mld

import (
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// TestAddressSpecificQueryScopesResponses: after a Done, the querier sends
// Address-Specific Queries; hosts subscribed to *other* groups must not
// respond to them.
func TestAddressSpecificQueryScopesResponses(t *testing.T) {
	cfg := FastConfig(60 * time.Second) // long general-query period
	f := newFixture(41, cfg)
	g2 := ipv6.MustParseAddr("ff0e::202")

	_, i1, h1 := f.addHost("h1", HostConfig{Config: cfg})
	_, i2, h2 := f.addHost("h2", HostConfig{Config: cfg})
	h1.Join(i1, group) // will leave
	h2.Join(i2, g2)    // must stay silent during group's specific queries
	f.s.RunUntil(sim.Time(30 * time.Second))

	baseline2 := h2.ReportsSent
	specifics := 0
	f.link.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoICMPv6 {
			return
		}
		if m, err := icmpv6.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload); err == nil {
			if mm := m.MLD; m.Type == icmpv6.TypeMLDQuery && !mm.IsGeneralQuery() {
				specifics++
				if mm.MulticastAddress != group {
					t.Errorf("specific query for %s, want %s", mm.MulticastAddress, group)
				}
			}
		}
	})
	h1.Leave(i1, group)
	f.s.RunUntil(sim.Time(40 * time.Second))

	if specifics == 0 {
		t.Fatal("no address-specific queries after Done")
	}
	if h2.ReportsSent != baseline2 {
		t.Fatalf("h2 responded to a specific query for a group it is not in (%d -> %d)",
			baseline2, h2.ReportsSent)
	}
	// And the router must have removed only the left group.
	if f.mr.HasListeners(f.router.Ifaces[0], group) {
		t.Fatal("left group still has listeners")
	}
	if !f.mr.HasListeners(f.router.Ifaces[0], g2) {
		t.Fatal("unrelated group lost its listener")
	}
}

// TestQuerierDemotionStopsSpecificQueries: only the elected querier runs
// the last-listener procedure; a non-querier hearing a Done must not send
// specific queries.
func TestNonQuerierIgnoresDone(t *testing.T) {
	cfg := FastConfig(20 * time.Second)
	f := newFixture(42, cfg)
	r2 := f.net.NewNode("R2", true)
	r2.AddInterface(f.link)
	mr2 := NewRouter(r2, cfg)
	_, ifc, h := f.addHost("h", HostConfig{Config: cfg})
	h.Join(ifc, group)
	f.s.RunUntil(sim.Time(90 * time.Second)) // election settles; R (first) wins

	if mr2.IsQuerier(r2.Ifaces[0]) {
		t.Fatal("setup: R2 unexpectedly won the election")
	}
	before := mr2.QueriesSent
	h.Leave(ifc, group)
	f.s.RunUntil(sim.Time(2 * time.Minute))
	if mr2.QueriesSent != before {
		t.Fatalf("non-querier sent %d queries after Done", mr2.QueriesSent-before)
	}
	// Both routers eventually drop the listener (the non-querier via the
	// lowered timer from the querier's specific queries).
	if mr2.HasListeners(r2.Ifaces[0], group) {
		t.Fatal("non-querier kept listener state after last-listener procedure")
	}
}

// TestQueryResponseTimerOnlyShortened: a second query must not extend an
// already-short pending response timer.
func TestQueryResponseTimerOnlyShortened(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(43, cfg)
	_, ifc, h := f.addHost("h", HostConfig{Config: cfg})
	h.Join(ifc, group)
	f.s.RunUntil(sim.Time(time.Second))

	// Craft two queries back to back: first with tiny max delay, second
	// with a huge one. The response must come within the tiny bound.
	send := func(maxDelay time.Duration) {
		src := f.router.Ifaces[0].LinkLocal()
		q := &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: maxDelay}
		_ = f.router.OutputOn(f.router.Ifaces[0], Packet(src, ipv6.AllNodes, q))
	}
	before := h.ReportsSent
	var respondedAt sim.Time
	f.link.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto != ipv6.ProtoICMPv6 || respondedAt != 0 {
			return
		}
		if m, err := icmpv6.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload); err == nil {
			if m.Type == icmpv6.TypeMLDReport {
				respondedAt = f.s.Now()
			}
		}
	})
	start := f.s.Now()
	send(100 * time.Millisecond)
	send(time.Hour)
	f.s.RunUntil(start + sim.Time(10*time.Second))
	if h.ReportsSent == before {
		t.Fatal("no response to queries")
	}
	if respondedAt.Sub(start) > 200*time.Millisecond {
		t.Fatalf("response after %v; later query extended the pending timer", respondedAt.Sub(start))
	}
}
