package core_test

import (
	"testing"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/scenario"
)

func TestHAServiceStop(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(61, approach)
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	r.f.Move("R3", "L6")
	r.f.Run(30 * time.Second)

	svc := r.haService("R3")
	before := svc.TunneledQueriesSent
	if before == 0 {
		t.Fatal("setup: no tunnel queries before stop")
	}
	svc.Stop()
	r.f.Run(5 * time.Minute)
	if svc.TunneledQueriesSent != before {
		t.Fatalf("queries kept flowing after Stop: %d -> %d", before, svc.TunneledQueriesSent)
	}
}

func TestHAServiceMemberGroupsAcrossBindings(t *testing.T) {
	// Two mobile nodes behind the same home agent subscribing to
	// overlapping groups: the HA's membership is the union, reference
	// counted.
	approach := core.UniTunnelHAToMN
	r := newRig(62, approach)
	g2 := ipv6.MustParseAddr("ff0e::222")
	m1 := r.f.AddHost("M1", "L4", 0x6001)
	m2 := r.f.AddHost("M2", "L4", 0x6002)
	s1 := core.NewService(m1.MN, m1.MLD, approach)
	s2 := core.NewService(m2.MN, m2.MLD, approach)
	r.f.Settle()
	s1.Join(scenario.Group)
	s2.Join(scenario.Group)
	s2.Join(g2)
	r.f.Move("M1", "L6")
	r.f.Move("M2", "L6")
	r.f.Run(30 * time.Second)

	svc := r.haService("R3")
	if got := svc.MemberGroups(); len(got) != 2 {
		t.Fatalf("member groups = %v", got)
	}
	// M2 leaves the shared group: the HA must stay subscribed for M1.
	r.f.Sched.Schedule(0, func() { s2.Leave(scenario.Group) })
	r.f.Run(10 * time.Second)
	found := false
	for _, g := range svc.MemberGroups() {
		if g == scenario.Group {
			found = true
		}
	}
	if !found {
		t.Fatal("shared group dropped while a binding still subscribes")
	}
	// M1 leaves too: now it goes.
	r.f.Sched.Schedule(0, func() { s1.Leave(scenario.Group) })
	r.f.Run(10 * time.Second)
	for _, g := range svc.MemberGroups() {
		if g == scenario.Group {
			t.Fatal("group survived both leaves")
		}
	}
}

// TestHAServiceRestartsWithRouter crashes the router that is R3's home
// agent while R3 receives through the tunnel. The restarted router must
// start a service on its fresh home agent, so R3's re-registration (its
// Binding Update carries the group list) subscribes the home agent again
// and delivery resumes.
func TestHAServiceRestartsWithRouter(t *testing.T) {
	r := newRig(73, core.UniTunnelHAToMN) // Group-List BU variant
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	got := r.countReceiver("R3")
	r.stream(100 * time.Millisecond)
	r.f.Move("R3", "L6")
	r.f.Run(30 * time.Second)
	if *got == 0 {
		t.Fatal("setup: R3 received nothing through the tunnel")
	}

	r.f.CrashRouter("D")
	r.f.Run(8 * time.Second)
	r.f.RestartRouter("D")
	before := *got
	r.f.Run(120 * time.Second)
	if *got == before {
		t.Fatal("R3 received nothing in the 120 s after its home agent's router restarted")
	}
	svc := r.haService("R3")
	if svc == nil || len(svc.MemberGroups()) != 1 || svc.MemberGroups()[0] != scenario.Group {
		t.Fatalf("restarted home agent's service does not hold R3's group: %+v", svc)
	}
}
