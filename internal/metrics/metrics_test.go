package metrics

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

func dataPacket(group bool) *ipv6.Packet {
	dst := ipv6.MustParseAddr("ff0e::101")
	if !group {
		dst = ipv6.MustParseAddr("2001:db8:2::1")
	}
	src := ipv6.MustParseAddr("2001:db8:1::1")
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 100)}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
}

func TestSplitPlainClasses(t *testing.T) {
	cases := []struct {
		name string
		pkt  *ipv6.Packet
		want Class
	}{
		{"multicast-udp", dataPacket(true), ClassData},
		{"unicast-udp", dataPacket(false), ClassUnicast},
		{"pim", &ipv6.Packet{Hdr: ipv6.Header{HopLimit: 1}, Proto: ipv6.ProtoPIM, Payload: []byte{0x20, 0, 0, 0}}, ClassPIM},
		{"mld", &ipv6.Packet{Hdr: ipv6.Header{HopLimit: 1}, Proto: ipv6.ProtoICMPv6, Payload: []byte{130, 0, 0, 0}}, ClassMLD},
		{"ndp", &ipv6.Packet{Hdr: ipv6.Header{HopLimit: 255}, Proto: ipv6.ProtoICMPv6, Payload: []byte{134, 0, 0, 0}}, ClassNDP},
		{"other-icmp", &ipv6.Packet{Hdr: ipv6.Header{HopLimit: 255}, Proto: ipv6.ProtoICMPv6, Payload: []byte{1, 0, 0, 0}}, ClassOther},
		{"empty-icmp", &ipv6.Packet{Proto: ipv6.ProtoICMPv6}, ClassOther},
	}
	for _, c := range cases {
		wire, err := c.pkt.Encode()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		split := Split(c.pkt, len(wire))
		if split[c.want] != len(wire) {
			t.Errorf("%s: split = %v, want all %d bytes in %s", c.name, split, len(wire), c.want)
		}
	}
}

func TestSplitBindingUpdateIsMIPv6(t *testing.T) {
	bu := &ipv6.BindingUpdate{HomeReg: true, Ack: true, Sequence: 1, Lifetime: 10}
	opt, _ := bu.Marshal()
	pkt := &ipv6.Packet{
		Hdr:   ipv6.Header{Src: ipv6.MustParseAddr("2001:db8:2::9"), Dst: ipv6.MustParseAddr("2001:db8:1::1"), HopLimit: 64},
		Ext:   &ipv6.Ext{DestOpts: []ipv6.Option{opt}},
		Proto: ipv6.ProtoNoNext,
	}
	wire, _ := pkt.Encode()
	split := Split(pkt, len(wire))
	if split[ClassMIPv6] != len(wire) {
		t.Fatalf("split = %v", split)
	}
}

func TestSplitTunnelOverhead(t *testing.T) {
	inner := dataPacket(true)
	ha := ipv6.MustParseAddr("2001:db8:4::1")
	coa := ipv6.MustParseAddr("2001:db8:6::99")
	outer, err := ipv6.Encapsulate(ha, coa, 64, inner)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := outer.Encode()
	split := Split(outer, len(wire))
	if split[ClassTunnel] != ipv6.TunnelOverheadBytes {
		t.Errorf("tunnel overhead = %d, want %d", split[ClassTunnel], ipv6.TunnelOverheadBytes)
	}
	if split[ClassData] != len(wire)-ipv6.TunnelOverheadBytes {
		t.Errorf("data share = %d", split[ClassData])
	}
	// Two layers: double overhead.
	outer2, _ := ipv6.Encapsulate(coa, ha, 64, outer)
	wire2, _ := outer2.Encode()
	split2 := Split(outer2, len(wire2))
	if split2[ClassTunnel] != 2*ipv6.TunnelOverheadBytes {
		t.Errorf("nested overhead = %d", split2[ClassTunnel])
	}
}

func TestSplitFragments(t *testing.T) {
	// Tunnel fragment: whole frame is tunnel overhead.
	inner := dataPacket(true)
	inner.Payload = append(inner.Payload, make([]byte, 3000)...)
	outer, err := ipv6.Encapsulate(ipv6.MustParseAddr("2001:db8:4::1"), ipv6.MustParseAddr("2001:db8:6::99"), 64, inner)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := ipv6.Fragment(outer, ipv6.MinMTU, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("a %d-byte tunnel packet gave %d fragment(s) at MinMTU", outer.WireLen(), len(frags))
	}
	for _, f := range frags {
		wire, _ := f.Encode()
		split := Split(f, len(wire))
		if split[ClassTunnel] != len(wire) {
			t.Fatalf("tunnel fragment split = %v", split)
		}
	}
	// Native multicast fragment: data.
	big := dataPacket(true)
	big.Payload = append(big.Payload, make([]byte, 3000)...)
	nf, err := ipv6.Fragment(big, ipv6.MinMTU, 10)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := nf[0].Encode()
	if split := Split(nf[0], len(wire)); split[ClassData] != len(wire) {
		t.Fatalf("native multicast fragment split = %v", split)
	}
	// Native unicast fragment: unicast.
	bigU := dataPacket(false)
	bigU.Payload = append(bigU.Payload, make([]byte, 3000)...)
	uf, _ := ipv6.Fragment(bigU, ipv6.MinMTU, 11)
	wire, _ = uf[0].Encode()
	if split := Split(uf[0], len(wire)); split[ClassUnicast] != len(wire) {
		t.Fatalf("native unicast fragment split = %v", split)
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("class %d has bad/duplicate name %q", c, s)
		}
		seen[s] = true
	}
}

func TestAccountant(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	l := net.NewLink("L", 0, 0)
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l)
	ib := b.AddInterface(l)
	src := ipv6.MustParseAddr("2001:db8:1::1")
	ia.AddAddr(src)
	g := ipv6.MustParseAddr("ff0e::101")
	ib.JoinGroup(g)

	acct := NewAccountant(net)
	pkt := dataPacket(true)
	wire, _ := pkt.Encode()
	_ = a.OutputOn(ia, pkt)
	s.Run()

	if acct.TotalBytes(ClassData) != uint64(len(wire)) {
		t.Fatalf("data bytes = %d, want %d", acct.TotalBytes(ClassData), len(wire))
	}
	if acct.TotalAll() != uint64(len(wire)) {
		t.Fatalf("total = %d", acct.TotalAll())
	}
	lc := acct.Of(l)
	if lc == nil || lc.Total() != uint64(len(wire)) || lc.Frames[ClassData] != 1 {
		t.Fatalf("link counters: %+v", lc)
	}
	if !strings.Contains(acct.Summary(), "L") {
		t.Error("summary missing link name")
	}
	// Watch is idempotent.
	acct.Watch(l)
	_ = a.OutputOn(ia, dataPacket(true))
	s.Run()
	if lc.Frames[ClassData] != 2 {
		t.Fatalf("double-watch double-counted: %d", lc.Frames[ClassData])
	}
	if len(acct.Snapshot()) != 1 {
		t.Fatalf("snapshot len = %d", len(acct.Snapshot()))
	}
}

func TestFlowProbe(t *testing.T) {
	p := NewFlowProbe("r")
	at := func(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }
	p.Record(1, at(1), 3)
	p.Record(2, at(2), 3)
	p.Record(2, at(2), 3) // duplicate
	p.Record(3, at(10), 5)
	p.Record(4, at(11), 5)

	if p.Count() != 4 {
		t.Fatalf("count = %d", p.Count())
	}
	if p.Duplicates != 1 {
		t.Fatalf("dups = %d", p.Duplicates)
	}
	if d, ok := p.FirstAfter(at(3)); !ok || d.Seq != 3 {
		t.Fatalf("FirstAfter = %+v, %v", d, ok)
	}
	if _, ok := p.FirstAfter(at(12)); ok {
		t.Fatal("FirstAfter past end returned ok")
	}
	if d, ok := p.LastBefore(at(10)); !ok || d.Seq != 2 {
		t.Fatalf("LastBefore = %+v", d)
	}
	if _, ok := p.LastBefore(at(1)); ok {
		t.Fatal("LastBefore before start returned ok")
	}
	if n := p.CountBetween(at(2), at(11)); n != 2 {
		t.Fatalf("CountBetween = %d", n)
	}
	if g := p.MaxGap(at(0), at(20)); g != sim.Time(8*time.Second) {
		t.Fatalf("MaxGap = %v", g)
	}
	if h := p.MeanHops(at(9), at(20)); h != 5 {
		t.Fatalf("MeanHops = %v", h)
	}
	if h := p.MeanHops(at(50), at(60)); h != 0 {
		t.Fatalf("MeanHops empty window = %v", h)
	}
}

// TestFlowProbeDuplicates checks duplicate detection against a reference
// set: datagrams arrive out of order, some more than once, one sequence
// number far beyond the rest, and 0, 63, 64 at the word boundaries.
func TestFlowProbeDuplicates(t *testing.T) {
	p := NewFlowProbe("r")
	arrivals := []uint64{5, 3, 4, 3, 1, 2, 5, 100_000, 6, 100_000, 63, 64, 0, 64, 2, 99_999}
	seen := map[uint64]bool{}
	var want []uint64
	dups := uint64(0)
	for i, seq := range arrivals {
		p.Record(seq, sim.Time(i), 1)
		if seen[seq] {
			dups++
			continue
		}
		seen[seq] = true
		want = append(want, seq)
	}
	if p.Duplicates != dups || p.Count() != len(want) {
		t.Fatalf("%d distinct, %d duplicates; want %d and %d", p.Count(), p.Duplicates, len(want), dups)
	}
	for i, d := range p.Deliveries {
		if d.Seq != want[i] || d.At != sim.Time(slices.Index(arrivals, want[i])) {
			t.Fatalf("delivery %d is %+v; want seq %d at its first arrival", i, d, want[i])
		}
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Row{
		{Label: "a", Values: map[string]float64{"x": 1, "y": 2.5}},
		{Label: "b-with-a-long-label", Values: map[string]float64{"x": 1234567}},
	}
	out := Table("demo", []string{"x", "y"}, rows)
	for _, want := range []string{"== demo ==", "a", "b-with-a-long-label", "1", "2.500", "1234567", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
