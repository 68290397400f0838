package core_test

// RFC 2710 §7.8 robustness for the tunneled-MLD leave path: after a
// tunneled Done, the home agent must send the Address-Specific Query
// RobustnessVariable times, not once — a single lost query/report round
// must not falsely expire a remaining member behind the same home agent.

import (
	"testing"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

func TestTunneledDoneQueriesRobustnessTimes(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(71, approach)
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	r.f.Move("R3", "L6")
	r.f.Run(30 * time.Second)

	svc := r.haService("R3")
	before := svc.TunneledQueriesSent
	r.f.Sched.Schedule(0, func() { r.svc["R3"].Leave(scenario.Group) })
	r.f.Run(30 * time.Second)
	want := uint64(r.f.Opt.MLD.Robustness)
	if got := svc.TunneledQueriesSent - before; got != want {
		t.Fatalf("tunneled Done triggered %d specific queries, want Robustness = %d", got, want)
	}
}

// TestTunneledQueriesAddressed: the home agent addresses the queries it
// tunnels as a link's querier does (RFC 2710 §5): a General Query to
// ff02::1, an Address-Specific Query to the group it asks about.
func TestTunneledQueriesAddressed(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(71, approach)
	general, specific := 0, 0
	r.f.Links["L6"].AddTap(func(ev netem.TxEvent) {
		inner := ev.Pkt.Inner
		if inner == nil || inner.Proto != ipv6.ProtoICMPv6 {
			return
		}
		m, err := icmpv6.Parse(inner.Hdr.Src, inner.Hdr.Dst, inner.Payload)
		if err != nil || m.Type != icmpv6.TypeMLDQuery {
			return
		}
		want := ipv6.AllNodes
		if m.MLD.IsGeneralQuery() {
			general++
		} else {
			specific++
			want = m.MLD.MulticastAddress
		}
		if inner.Hdr.Dst != want {
			t.Errorf("%v: tunneled query for %v sent to %v, want %v", ev.Time, m.MLD.MulticastAddress, inner.Hdr.Dst, want)
		}
	})
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	r.f.Move("R3", "L6")
	r.f.Run(60 * time.Second)
	r.f.Sched.Schedule(0, func() { r.svc["R3"].Leave(scenario.Group) })
	r.f.Run(30 * time.Second)
	if general == 0 || specific != r.f.Opt.MLD.Robustness {
		t.Fatalf("saw %d general and %d specific tunneled queries, want some and Robustness = %d", general, specific, r.f.Opt.MLD.Robustness)
	}
}

func TestTunneledLeaveSurvivesLostQueryRound(t *testing.T) {
	// Two mobile nodes behind the L4 home agent, both members, both away
	// on L6. M2 leaves; the first query/report round is destroyed by a
	// 100% loss window, so only the retransmitted round can save M1's
	// membership.
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(72, approach)
	m1 := r.f.AddHost("M1", "L4", 0x7001)
	m2 := r.f.AddHost("M2", "L4", 0x7002)
	s1 := core.NewService(m1.MN, m1.MLD, approach)
	s2 := core.NewService(m2.MN, m2.MLD, approach)
	r.f.Settle()
	s1.Join(scenario.Group)
	s2.Join(scenario.Group)
	r.f.Move("M1", "L6")
	r.f.Move("M2", "L6")
	r.f.Run(30 * time.Second)

	svc := r.haService("R3")
	hasGroup := func() bool {
		for _, g := range svc.MemberGroups() {
			if g == scenario.Group {
				return true
			}
		}
		return false
	}
	if !hasGroup() {
		t.Fatal("setup: HA not subscribed while two tunneled members exist")
	}

	// Black out the foreign link exactly over the first specific-query
	// round (query out + M1's report back), then restore well before the
	// Last Listener Query Interval expires.
	r.f.Sched.Schedule(0, func() {
		s2.Leave(scenario.Group)
		r.f.Links["L6"].LossRate = 1
	})
	r.f.Sched.Schedule(300*time.Millisecond, func() { r.f.Links["L6"].LossRate = 0 })
	r.f.Run(30 * time.Second)

	if !hasGroup() {
		t.Fatal("one lost query round expired a remaining member: Done must be followed by Robustness queries")
	}

	// M1 leaves too — now the membership must expire within the bounded
	// leave horizon (Robustness × LLQI plus scheduling slack).
	start := r.f.Sched.Now()
	r.f.Sched.Schedule(0, func() { s1.Leave(scenario.Group) })
	bound := time.Duration(r.f.Opt.MLD.Robustness)*r.f.Opt.MLD.LastListenerQueryInterval + 5*time.Second
	r.f.Run(bound)
	if hasGroup() {
		t.Fatalf("membership still present %v after the last member left (bound %v)",
			r.f.Sched.Now().Sub(start), bound)
	}
}
