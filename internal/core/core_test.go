package core_test

import (
	"testing"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

func TestApproachNamesAndTable(t *testing.T) {
	// The paper's Table 1, in its numbering.
	four := []core.Approach{core.LocalMembership, core.BidirectionalTunnel, core.UniTunnelMNToHA, core.UniTunnelHAToMN}
	all := core.Approaches()
	if len(all) < 5 {
		t.Fatalf("registry has %d approaches, want the paper's four plus the proxy hierarchy", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		names[a.String()] = true
	}
	for _, want := range []string{"local-membership", "bidir-tunnel", "uni-tunnel-mn-to-ha", "uni-tunnel-ha-to-mn", "proxy-hierarchy"} {
		if !names[want] {
			t.Errorf("missing approach %q; got %v", want, names)
		}
	}
	for i, a := range four {
		if all[i] != a {
			t.Errorf("Approaches()[%d] = %v, want the paper's numbering prefix %v", i, all[i], a)
		}
	}
	for _, alias := range []string{"local", "tunnel", "proxy", "proxy-hierarchy", "bidir", "mn2ha", "ha2mn"} {
		if _, ok := core.ApproachByName(alias); !ok {
			t.Errorf("alias %q does not resolve", alias)
		}
	}
	// The name ignores the home-agent variant.
	for i, name := range core.ApproachNames() {
		a := all[i]
		a.Variant = core.VariantTunneledMLD
		if all[i].String() != name || a.String() != name {
			t.Errorf("approach %d prints %q / %q with tunneled MLD, want %q", i, all[i].String(), a.String(), name)
		}
	}
	if _, ok := core.ApproachByName("nope"); ok {
		t.Error("unknown name resolved")
	}
	if core.LocalMembership.Send != core.SendLocal || core.LocalMembership.Receive != core.ReceiveLocal {
		t.Error("LocalMembership modes wrong")
	}
	if core.BidirectionalTunnel.Send != core.SendHomeTunnel || core.BidirectionalTunnel.Receive != core.ReceiveHomeTunnel {
		t.Error("BidirectionalTunnel modes wrong")
	}
}

func TestRecommendedHostMLD(t *testing.T) {
	if !core.RecommendedHostMLD(core.LocalMembership, true) {
		t.Error("local membership should keep unsolicited re-reports")
	}
	if core.RecommendedHostMLD(core.BidirectionalTunnel, true) {
		t.Error("tunnel reception must not re-report on foreign links")
	}
	if core.RecommendedHostMLD(core.LocalMembership, false) {
		t.Error("must not re-enable a disabled knob")
	}
}

// rig is a Figure-1 network, whose routers run their home agents'
// services, with the approach's service on every host.
type rig struct {
	f   *scenario.Network
	svc map[string]*core.Service
}

func newRig(seed int64, approach core.Approach) *rig {
	opt := scenario.DefaultOptions()
	opt.MLD = mld.FastConfig(30 * time.Second)
	opt.Seed = seed
	opt.ResendOnMove = core.RecommendedHostMLD(approach, opt.ResendOnMove)
	f := scenario.NewFigure1(opt)
	r := &rig{f: f, svc: map[string]*core.Service{}}
	for _, name := range scenario.HostNames() {
		h := f.Hosts[name]
		r.svc[name] = core.NewService(h.MN, h.MLD, approach)
	}
	return r
}

// haService returns the service of the home agent serving the named host.
func (r *rig) haService(host string) *core.HAService {
	ha := r.f.HomeAgentOf(host)
	for _, router := range r.f.Routers {
		for _, svc := range router.HAServices {
			if svc.HA == ha {
				return svc
			}
		}
	}
	return nil
}

func (r *rig) countReceiver(name string) *int {
	n := new(int)
	r.f.Hosts[name].Node.BindUDP(scenario.WorkloadPort, func(netem.RxPacket, ipv6.UDP) { (*n)++ })
	return n
}

func (r *rig) stream(interval time.Duration) *scenario.CBR {
	s := r.svc["S"]
	return scenario.NewCBR(r.f.Sched, 1, interval, 64, func(p []byte) { s.Send(scenario.Group, p) })
}

func TestServiceJoinAtHomeIsLocal(t *testing.T) {
	r := newRig(1, core.BidirectionalTunnel)
	r.f.Settle()
	svc := r.svc["R3"]
	svc.Join(scenario.Group)
	got := r.countReceiver("R3")
	r.stream(100 * time.Millisecond)
	r.f.Run(20 * time.Second)
	if *got < 150 {
		t.Fatalf("at-home tunnel-approach receiver got %d", *got)
	}
	// At home no tunnel may be used.
	if r.f.Acct.TotalBytes(metrics.ClassTunnel) != 0 {
		t.Errorf("tunnel bytes at home: %d", r.f.Acct.TotalBytes(metrics.ClassTunnel))
	}
	if len(svc.Groups()) != 1 {
		t.Errorf("groups = %v", svc.Groups())
	}
}

func TestServiceTunnelReceiveAfterMove(t *testing.T) {
	for _, variant := range []core.HAVariant{core.VariantGroupListBU, core.VariantTunneledMLD} {
		approach := core.UniTunnelHAToMN
		approach.Variant = variant
		r := newRig(2, approach)
		r.f.Settle()
		r.svc["R3"].Join(scenario.Group)
		got := r.countReceiver("R3")
		r.stream(100 * time.Millisecond)
		r.f.Run(20 * time.Second)

		before := *got
		r.f.Move("R3", "L6")
		r.f.Run(60 * time.Second)
		if *got <= before+400 {
			t.Errorf("variant %d: tunneled stream stalled: %d -> %d", variant, before, *got)
		}
		// Data reaches L6 only as tunneled unicast: the HA service at D
		// must hold membership for the group.
		ha := r.f.HomeAgentOf("R3")
		if ha.MulticastTunneled == 0 {
			t.Errorf("variant %d: HA never tunneled group traffic", variant)
		}
		b, ok := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress)
		if !ok || len(b.Groups) != 1 || b.Groups[0] != scenario.Group {
			t.Errorf("variant %d: binding groups = %+v", variant, b)
		}
	}
}

func TestTunneledMLDMembershipExpiresWhenSilent(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(3, approach)
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	r.f.Move("R3", "L6")
	r.f.Run(30 * time.Second)

	ha := r.f.HomeAgentOf("R3")
	b, ok := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress)
	if !ok || len(b.Groups) != 1 {
		t.Fatalf("tunneled membership not established: %+v", b)
	}

	// Cut the mobile node off (it can no longer answer tunnel queries or
	// refresh its binding): the paper says the membership dies when the
	// MLD timer (T_MLI) — or the binding — expires in the home agent.
	void := r.f.Net.NewLink("void", 0, time.Millisecond)
	r.f.Net.Move(r.f.Hosts["R3"].Iface, void)

	tmli := mld.FastConfig(30 * time.Second).ListenerInterval()
	r.f.Run(tmli + 30*time.Second)
	if b, ok := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress); ok && len(b.Groups) != 0 {
		t.Fatalf("membership survived silence: %+v", b.Groups)
	}
	if len(r.haService("R3").MemberGroups()) != 0 {
		t.Fatalf("HA service still member of %v", r.haService("R3").MemberGroups())
	}
}

func TestTunneledMLDRefreshKeepsMembership(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(4, approach)
	r.f.Settle()
	r.svc["R3"].Join(scenario.Group)
	r.f.Move("R3", "L6")
	// Stay away across several listener intervals: tunnel queries +
	// responses must keep the membership alive.
	tmli := mld.FastConfig(30 * time.Second).ListenerInterval()
	r.f.Run(4 * tmli)
	ha := r.f.HomeAgentOf("R3")
	b, ok := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress)
	if !ok || len(b.Groups) != 1 {
		t.Fatalf("membership lost despite refreshes: %+v", b)
	}
	if r.haService("R3").TunneledQueriesSent == 0 {
		t.Error("HA never queried the tunnel")
	}
	if r.svc["R3"].TunneledReportsSent < 3 {
		t.Errorf("MN sent only %d tunneled reports", r.svc["R3"].TunneledReportsSent)
	}
}

func TestServiceLeaveClearsTunnelMembership(t *testing.T) {
	for _, variant := range []core.HAVariant{core.VariantGroupListBU, core.VariantTunneledMLD} {
		approach := core.UniTunnelHAToMN
		approach.Variant = variant
		r := newRig(5, approach)
		r.f.Settle()
		r.svc["R3"].Join(scenario.Group)
		r.f.Move("R3", "L6")
		r.f.Run(30 * time.Second)
		ha := r.f.HomeAgentOf("R3")
		if b, _ := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress); len(b.Groups) != 1 {
			t.Fatalf("variant %d: setup failed", variant)
		}
		r.f.Sched.Schedule(0, func() { r.svc["R3"].Leave(scenario.Group) })
		r.f.Run(30 * time.Second)
		b, _ := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress)
		if len(b.Groups) != 0 {
			t.Errorf("variant %d: groups after leave = %v", variant, b.Groups)
		}
		if len(r.svc["R3"].Groups()) != 0 {
			t.Errorf("variant %d: service still subscribed", variant)
		}
	}
}

func TestGroupListFallbackBeyondCapacity(t *testing.T) {
	// More than ipv6.GroupListCapacity subscriptions cannot ride the
	// Figure 5 sub-option; the service must fall back to tunneled MLD and
	// stay correct across binding refresh cycles (regression: a refresh
	// BU carrying an explicit empty list once wiped the HA's membership).
	approach := core.UniTunnelHAToMN // GroupListBU by default
	r := newRig(7, approach)
	r.f.Settle()

	nGroups := ipv6.GroupListCapacity + 5
	groups := make([]ipv6.Addr, nGroups)
	for i := range groups {
		groups[i] = ipv6.MustParseAddr("ff0e::300")
		groups[i][15] = byte(i)
		r.svc["R3"].Join(groups[i])
	}
	if !r.svc["R3"].FellBackToTunneledMLD {
		t.Fatal("service did not fall back beyond Group List capacity")
	}

	// Stream to one of the overflow groups and roam.
	s := r.svc["S"]
	cbr := scenario.NewCBR(r.f.Sched, 1, 100*time.Millisecond, 64, func(p []byte) {
		s.Send(groups[nGroups-1], p)
	})
	_ = cbr
	got := r.countReceiver("R3")
	r.f.Move("R3", "L6")
	// Run across several binding refresh cycles (lifetime/2 = 128 s).
	r.f.Run(10 * time.Minute)

	want := 10 * 60 * 10 // ≈ datagrams sent
	if *got < want*9/10 {
		t.Fatalf("delivered %d of ~%d across refresh cycles; membership flapped", *got, want)
	}
	ha := r.f.HomeAgentOf("R3")
	b, ok := ha.BindingFor(r.f.Hosts["R3"].MN.HomeAddress)
	if !ok || len(b.Groups) != nGroups {
		t.Fatalf("HA holds %d groups, want %d", len(b.Groups), nGroups)
	}
}

func TestSendModes(t *testing.T) {
	// Local sending from a foreign link uses the care-of address (new
	// PIM source); tunneled sending keeps the home address.
	for _, sendTunnel := range []bool{false, true} {
		approach := core.LocalMembership
		if sendTunnel {
			approach = core.UniTunnelMNToHA
		}
		r := newRig(6, approach)
		r.svc["R1"].Join(scenario.Group)
		got := r.countReceiver("R1")
		r.f.Settle()
		r.f.Move("S", "L6")
		r.f.Run(10 * time.Second) // CoA + binding in place
		var srcs []ipv6.Addr
		r.f.Links["L1"].AddTap(func(ev netem.TxEvent) {
			inner := ev.Pkt
			for inner.Inner != nil {
				inner = inner.Inner
			}
			if inner.Proto == ipv6.ProtoUDP && inner.Hdr.Dst == scenario.Group {
				srcs = append(srcs, inner.Hdr.Src)
			}
		})
		cbr := r.stream(100 * time.Millisecond)
		r.f.Run(30 * time.Second)
		cbr.Stop()

		if *got < 200 {
			t.Fatalf("sendTunnel=%v: R1 got %d", sendTunnel, *got)
		}
		if len(srcs) == 0 {
			t.Fatalf("sendTunnel=%v: no data on L1", sendTunnel)
		}
		mn := r.f.Hosts["S"].MN
		want := mn.CareOf()
		if sendTunnel {
			want = mn.HomeAddress
		}
		for _, s := range srcs {
			if s != want {
				t.Fatalf("sendTunnel=%v: source %s, want %s", sendTunnel, s, want)
			}
		}
	}
}

func TestHAServiceWithPlainMLDHost(t *testing.T) {
	// The paper's second §4.3.2 scenario: the home agent is NOT the PIM
	// router. Build it explicitly: a dedicated HA box on L4 joins groups
	// via ordinary MLD toward router D.
	opt := scenario.DefaultOptions()
	opt.MLD = mld.FastConfig(30 * time.Second)
	opt.ResendOnMove = false
	f := scenario.NewFigure1(opt)

	// Dedicated HA node on L4.
	haNode := f.Net.NewNode("HAbox", false)
	haIfc := haNode.AddInterface(f.Links["L4"])
	haAddr := ipv6.MustParseAddr("2001:db8:4::ff")
	haIfc.AddAddr(haAddr)
	f.Dom.Recompute()
	haMLD := mld.NewHost(haNode, mld.HostConfig{Config: opt.MLD, ResendOnMove: true})
	ha := mipv6.NewHomeAgent(haNode, haIfc, haAddr, mipv6.DefaultHAConfig())
	hsvc := core.NewHAService(ha, nil, haMLD, opt.MLD)
	_ = hsvc

	// Mobile node homed on L4 using that HA.
	h := f.AddHost("M", "L4", 0x4242)
	h.MN.Config.HomeAgent = haAddr
	svc := core.NewService(h.MN, h.MLD, core.UniTunnelHAToMN)

	// Static sender on L1.
	sHost := f.Hosts["S"]
	sSvc := core.NewService(sHost.MN, sHost.MLD, core.LocalMembership)
	cbr := scenario.NewCBR(f.Sched, 1, 100*time.Millisecond, 64, func(p []byte) {
		sSvc.Send(scenario.Group, p)
	})
	_ = cbr

	got := 0
	h.Node.BindUDP(scenario.WorkloadPort, func(netem.RxPacket, ipv6.UDP) { got++ })

	f.Settle()
	svc.Join(scenario.Group)
	f.Move("M", "L6")
	f.Run(60 * time.Second)

	if got < 300 {
		t.Fatalf("MN behind plain (non-PIM) HA got %d datagrams", got)
	}
	if !haMLD.Member(haIfc, scenario.Group) {
		t.Fatal("plain HA is not an MLD member of the group")
	}
	if ha.MulticastTunneled == 0 {
		t.Fatal("plain HA tunneled nothing")
	}
}
