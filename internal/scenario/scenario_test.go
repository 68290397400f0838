package scenario

import (
	"testing"
	"testing/quick"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

func TestBeaconRoundtrip(t *testing.T) {
	b := Beacon{Flow: 7, Seq: 123456, SentAt: sim.Time(42 * time.Second)}
	for _, size := range []int{0, beaconLen, 64, 1400} {
		enc := b.Marshal(size)
		if size >= beaconLen && len(enc) != size {
			t.Errorf("size %d: encoded %d", size, len(enc))
		}
		got, ok := ParseBeacon(enc)
		if !ok || got != b {
			t.Errorf("size %d: roundtrip %+v ok=%v", size, got, ok)
		}
	}
	if _, ok := ParseBeacon([]byte("short")); ok {
		t.Error("parsed short payload")
	}
	bad := b.Marshal(64)
	bad[0] = 'X'
	if _, ok := ParseBeacon(bad); ok {
		t.Error("parsed wrong magic")
	}
}

func TestQuickBeaconRoundtrip(t *testing.T) {
	f := func(flow uint16, seq uint64, at int64, pad uint8) bool {
		b := Beacon{Flow: flow, Seq: seq, SentAt: sim.Time(at)}
		got, ok := ParseBeacon(b.Marshal(beaconLen + int(pad)))
		return ok && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Construction(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	if len(f.Links) != 6 || len(f.Routers) != 5 || len(f.Hosts) != 4 {
		t.Fatalf("links=%d routers=%d hosts=%d", len(f.Links), len(f.Routers), len(f.Hosts))
	}
	// Router attachments per the paper.
	wantIfaces := map[string]int{"A": 2, "B": 2, "C": 1, "D": 3, "E": 2}
	for name, n := range wantIfaces {
		if got := len(f.Routers[name].Node.Ifaces); got != n {
			t.Errorf("router %s has %d interfaces, want %d", name, got, n)
		}
	}
	// One home agent per link, on the designated router.
	haCount := 0
	for _, r := range f.Routers {
		haCount += len(r.HAs)
	}
	if haCount != 6 {
		t.Errorf("%d home agents, want 6", haCount)
	}
	if f.Routers["D"].HAs["L4"] == nil || f.Routers["D"].HAs["L5"] == nil {
		t.Error("D must be home agent for L4 and L5")
	}
	// Hosts start on their home links.
	if f.Hosts["S"].Iface.Link != f.Links["L1"] || f.Hosts["R3"].Iface.Link != f.Links["L4"] {
		t.Error("hosts not on home links")
	}
}

func TestFigure1HostsConfigureAndRegisterHome(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Settle()
	for _, name := range HostNames() {
		h := f.Hosts[name]
		if !h.MN.AtHome() {
			t.Errorf("%s not at home after settle", name)
		}
		if !h.Node.HasAddr(h.MN.HomeAddress) {
			t.Errorf("%s home address not configured", name)
		}
	}
	// HomeAgentOf resolves the designated HA.
	ha := f.HomeAgentOf("R3")
	if ha == nil {
		t.Fatal("no HA for R3")
	}
	if ha != f.Routers["D"].HAs["L4"] {
		t.Error("R3's HA is not D/L4")
	}
}

func TestFigure1MoveRegistersBinding(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Settle()
	f.Move("R3", "L6")
	f.Run(15 * time.Second)
	h := f.Hosts["R3"]
	if h.MN.AtHome() || !h.MN.Registered() {
		t.Fatalf("R3 atHome=%v registered=%v", h.MN.AtHome(), h.MN.Registered())
	}
	p, _ := f.Dom.PrefixOf(f.Links["L6"])
	if !h.MN.CareOf().MatchesPrefix(p, 64) {
		t.Errorf("care-of %s not from L6 prefix", h.MN.CareOf())
	}
	if _, ok := f.HomeAgentOf("R3").BindingFor(h.MN.HomeAddress); !ok {
		t.Error("no binding at D")
	}
}

func TestCBRRateAndBeacons(t *testing.T) {
	s := sim.NewScheduler(1)
	var got []Beacon
	c := NewCBR(s, 3, 100*time.Millisecond, 64, func(p []byte) {
		b, ok := ParseBeacon(p)
		if !ok {
			t.Fatal("bad beacon")
		}
		got = append(got, b)
	})
	s.RunUntil(sim.Time(10 * time.Second))
	c.Stop()
	s.RunUntil(sim.Time(20 * time.Second))
	if len(got) != 100 {
		t.Fatalf("sent %d datagrams in 10s at 10/s", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(i+1) || b.Flow != 3 {
			t.Fatalf("beacon %d = %+v", i, b)
		}
	}
	if c.Sent != 100 {
		t.Fatalf("Sent = %d", c.Sent)
	}
	// 64-byte payload at 10/s: (40+8+64)*8*10 bits/s.
	if r := c.BitRate(); r != 8960 {
		t.Fatalf("BitRate = %v", r)
	}
}

func TestAttachProbeRecordsHops(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	l := net.NewLink("L", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l)
	ib := b.AddInterface(l)
	src := ipv6.MustParseAddr("2001:db8:1::1")
	ia.AddAddr(src)
	ib.JoinGroup(Group)

	probe := metrics.NewFlowProbe("b")
	AttachProbe(b, s, 9, probe, nil)

	payload := Beacon{Flow: 9, Seq: 1, SentAt: 0}.Marshal(64)
	u := &ipv6.UDP{SrcPort: WorkloadPort, DstPort: WorkloadPort, Payload: payload}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: Group, HopLimit: 61}, // as if 3 hops happened
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, Group),
	}
	_ = a.OutputOn(ia, pkt)
	// A beacon of the wrong flow must be ignored.
	payload2 := Beacon{Flow: 8, Seq: 2, SentAt: 0}.Marshal(64)
	u2 := &ipv6.UDP{SrcPort: WorkloadPort, DstPort: WorkloadPort, Payload: payload2}
	pkt2 := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: Group, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u2.Marshal(src, Group),
	}
	_ = a.OutputOn(ia, pkt2)
	s.Run()

	if probe.Count() != 1 {
		t.Fatalf("probe count = %d", probe.Count())
	}
	if probe.Deliveries[0].Hops != 3 {
		t.Fatalf("hops = %d", probe.Deliveries[0].Hops)
	}
}

func TestSendLocalMulticastUsesCurrentAddress(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Settle()
	var srcs []ipv6.Addr
	f.Links["L1"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == Group {
			srcs = append(srcs, ev.Pkt.Hdr.Src)
		}
	})
	f.SendLocalMulticast("S", Group, Beacon{Flow: 1, Seq: 1}.Marshal(64))
	f.Run(time.Second)
	if len(srcs) != 1 || srcs[0] != f.Hosts["S"].MN.HomeAddress {
		t.Fatalf("srcs = %v", srcs)
	}
}

func TestTotalSGAndStatsAggregation(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Hosts["R3"].MLD.Join(f.Hosts["R3"].Iface, Group)
	f.Settle()
	// Drive a few datagrams so state exists.
	for i := 0; i < 5; i++ {
		f.SendLocalMulticast("S", Group, Beacon{Flow: 1, Seq: uint64(i)}.Marshal(64))
		f.Run(time.Second)
	}
	if f.TotalSGEntries() == 0 {
		t.Error("no (S,G) state after traffic")
	}
	st := f.MulticastStats()
	if st.HellosSent == 0 || st.DataArrived == 0 {
		t.Errorf("aggregated stats empty: %+v", st)
	}
}

func TestAddHostJoinsRoutingDomain(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	h := f.AddHost("X1", "L3", 0x7777)
	f.Settle()
	if !h.MN.AtHome() {
		t.Fatal("added host not at home")
	}
	// Its HA must be router C (designated for L3).
	if h.MN.Config.HomeAgent != f.Routers["C"].HAs["L3"].Address {
		t.Errorf("HA addr = %s", h.MN.Config.HomeAgent)
	}
}
