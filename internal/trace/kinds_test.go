package trace_test

import (
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/trace"
)

// kindSample is a packet, the kind and tunnel depth Classify gives it, and
// the kind Describe names it after its parse.
type kindSample struct {
	pkt      *ipv6.Packet
	kind     trace.Kind
	depth    int
	describe string
}

// kindSamples returns one packet of every kind, a packet for each
// refinement Describe makes (a Join/Prune that only joins or only prunes,
// ICMPv6 and PIM messages that do not parse), and tunneled packets one
// and two layers deep.
func kindSamples(t testing.TB) []kindSample {
	t.Helper()
	group := ipv6.MustParseAddr("ff0e::101")
	ll := ipv6.LinkLocalFromIID(1)
	plain := func(dst ipv6.Addr, proto uint8, payload []byte) *ipv6.Packet {
		return &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 64}, Proto: proto, Payload: payload}
	}
	udp := func(dst ipv6.Addr) *ipv6.Packet {
		u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 64)}
		return plain(dst, ipv6.ProtoUDP, u.Marshal(src, dst))
	}
	icmp := func(dst ipv6.Addr, msg icmpv6.Message) *ipv6.Packet {
		p := plain(dst, ipv6.ProtoICMPv6, icmpv6.Marshal(ll, dst, msg))
		p.Hdr.Src = ll
		return p
	}
	pim := func(msg pimdm.Message) *ipv6.Packet {
		b, err := pimdm.Marshal(ll, ipv6.AllPIMRouters, msg)
		if err != nil {
			t.Fatal(err)
		}
		p := plain(ipv6.AllPIMRouters, ipv6.ProtoPIM, b)
		p.Hdr.Src = ll
		return p
	}
	opt := func(o ipv6.Option) *ipv6.Packet {
		p := plain(dst, ipv6.ProtoNoNext, nil)
		p.Ext = &ipv6.Ext{DestOpts: []ipv6.Option{o}}
		return p
	}
	tunnel := func(p *ipv6.Packet) *ipv6.Packet {
		out, err := ipv6.Encapsulate(ipv6.MustParseAddr("2001:db8:4::1"), ipv6.MustParseAddr("2001:db8:6::99"), 64, p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	badSum := func(p *ipv6.Packet) *ipv6.Packet {
		b := append([]byte(nil), p.Payload...)
		b[2] ^= 0xff
		q := *p
		q.Payload = b
		return &q
	}

	big := udp(group)
	big.Payload = append(big.Payload, make([]byte, 3000)...)
	frags, err := ipv6.Fragment(big, ipv6.MinMTU, 7)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := (&ipv6.BindingUpdate{HomeReg: true, Ack: true, Sequence: 3, Lifetime: 60, GroupList: []ipv6.Addr{group}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var ra icmpv6.RouterAdvert
	ra.AddPrefix(icmpv6.PrefixInfo{PrefixLen: 64, OnLink: true, Autonomous: true, Prefix: ipv6.MustParseAddr("2001:db8:6::")})
	jp := func(kind uint8, joins, prunes []ipv6.Addr) *pimdm.JoinPrune {
		return &pimdm.JoinPrune{Kind: kind, UpstreamNeighbor: ll, Holdtime: time.Minute,
			Groups: []pimdm.JoinPruneGroup{{Group: group, Joins: joins, Prunes: prunes}}}
	}
	decl := func(kind uint8) *pimdm.Declaration {
		return &pimdm.Declaration{Kind: kind, Target: ll, Seq: 4, Group: group, Source: src}
	}
	srcs := []ipv6.Addr{src}
	mldReport := icmp(group, icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: group})
	unknownPIM := pim(&pimdm.Hello{Holdtime: time.Minute})
	unknownPIM.Payload[0] = 2<<4 | 15

	return []kindSample{
		{udp(group), trace.KindData, 0, "data"},
		{udp(dst), trace.KindUDP, 0, "udp"},
		{frags[1], trace.KindFragment, 0, "fragment"},
		{opt(bu), trace.KindBU, 0, "bu"},
		{opt((&ipv6.BindingAck{Sequence: 3, Lifetime: 60}).Marshal()), trace.KindBAck, 0, "back"},
		{opt(ipv6.BindingRequest{}.Marshal()), trace.KindBReq, 0, "breq"},
		{icmp(ipv6.AllNodes, icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: time.Second}), trace.KindMLDQuery, 0, "mld-query"},
		{mldReport, trace.KindMLDReport, 0, "mld-report"},
		{icmp(ipv6.AllRouters, icmpv6.MLD{Kind: icmpv6.TypeMLDDone, MulticastAddress: group}), trace.KindMLDDone, 0, "mld-done"},
		{icmp(ipv6.AllRouters, icmpv6.RouterSolicit{}), trace.KindNDPRS, 0, "ndp-rs"},
		{icmp(ipv6.AllNodes, ra), trace.KindNDPRA, 0, "ndp-ra"},
		{icmp(dst, icmpv6.PacketTooBig{MTU: 1280, Invoking: make([]byte, 48)}), trace.KindICMP6, 0, "icmp6"},
		{badSum(mldReport), trace.KindMLDReport, 0, "icmp6?"},
		{pim(&pimdm.Hello{Holdtime: time.Minute}), trace.KindPIMHello, 0, "pim-hello"},
		{pim(jp(pimdm.TypeJoinPrune, srcs, []ipv6.Addr{dst})), trace.KindPIMJoinPrune, 0, "pim-joinprune"},
		{pim(jp(pimdm.TypeJoinPrune, srcs, nil)), trace.KindPIMJoinPrune, 0, "pim-join"},
		{pim(jp(pimdm.TypeJoinPrune, nil, srcs)), trace.KindPIMJoinPrune, 0, "pim-prune"},
		{pim(jp(pimdm.TypeGraft, srcs, nil)), trace.KindPIMGraft, 0, "pim-graft"},
		{pim(jp(pimdm.TypeGraftAck, srcs, nil)), trace.KindPIMGraftAck, 0, "pim-graftack"},
		{pim(&pimdm.Assert{Group: group, Source: src, MetricPreference: 101, Metric: 2}), trace.KindPIMAssert, 0, "pim-assert"},
		{pim(&pimdm.StateRefresh{Group: group, Source: src, Originator: src, TTL: 3, Interval: time.Minute}), trace.KindPIMStateRefresh, 0, "pim-staterefresh"},
		{pim(decl(pimdm.TypeInterest)), trace.KindHPIMInterest, 0, "hpim-interest"},
		{pim(decl(pimdm.TypeNoInterest)), trace.KindHPIMNoInterest, 0, "hpim-nointerest"},
		{pim(decl(pimdm.TypeDeclAck)), trace.KindHPIMAck, 0, "hpim-ack"},
		{unknownPIM, trace.KindPIMBad, 0, "pim?"},
		{badSum(pim(&pimdm.Hello{Holdtime: time.Minute})), trace.KindPIMHello, 0, "pim?"},
		{plain(dst, ipv6.ProtoNoNext, nil), trace.KindNone, 0, "none"},
		{plain(dst, 200, []byte{1}), trace.KindProto, 0, "proto200"},
		{tunnel(udp(group)), trace.KindData, 1, "data"},
		{tunnel(tunnel(mldReport)), trace.KindMLDReport, 2, "mld-report"},
	}
}

// describeFrame decodes frame the way a link does and describes it.
func describeFrame(t testing.TB, pkt *ipv6.Packet) (netem.TxEvent, trace.Event) {
	t.Helper()
	frame, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rx, _, err := ipv6.DecodeShared(frame, pkt)
	if err != nil {
		t.Fatal(err)
	}
	ev := netem.TxEvent{Link: &netem.Link{Name: "X"}, Frame: frame, Pkt: rx}
	return ev, trace.Describe(ev)
}

// Classify and Describe agree on every sample, every kind Classify can
// return has a sample, and every kind name is one Describe emits.
func TestClassifyKinds(t *testing.T) {
	classified := map[trace.Kind]bool{}
	described := map[string]bool{}
	for _, s := range kindSamples(t) {
		ev, e := describeFrame(t, s.pkt)
		kind, depth := trace.Classify(ev.Pkt)
		if kind != s.kind || depth != s.depth {
			t.Errorf("%s: Classify = %s at depth %d, want %s at %d", s.describe, kind, depth, s.kind, s.depth)
		}
		if e.Kind != s.describe || e.TunnelDepth != s.depth {
			t.Errorf("%s: Describe = %q at depth %d: %v", s.describe, e.Kind, e.TunnelDepth, e)
		}
		classified[kind] = true
		described[e.Kind] = true
	}
	parseOnly := map[trace.Kind]bool{trace.KindPIMJoin: true, trace.KindPIMPrune: true, trace.KindICMP6Bad: true}
	for k := range trace.NumKinds {
		if !parseOnly[k] && !classified[k] {
			t.Errorf("no sample Classify calls %s", k)
		}
	}
	for _, name := range trace.KnownKinds() {
		if !described[name] {
			t.Errorf("known kind %q: no sample Describe names so", name)
		}
		if k, ok := trace.KindNamed(name); !ok || k.String() != name {
			t.Errorf("KnownKinds lists %q, KindNamed gives %s, %v", name, k, ok)
		}
	}
	for _, name := range []string{"proto", "proto200", "pim", "pim-", ""} {
		if k, ok := trace.KindNamed(name); ok {
			t.Errorf("KindNamed(%q) = %s", name, k)
		}
	}
	for _, name := range []string{"icmp6", "icmp6?", "pim?", "none", "hpim-ack"} {
		if k, _ := trace.KindNamed(name); k.Fallback() != (name != "hpim-ack") {
			t.Errorf("%s: Fallback() = %v", name, k.Fallback())
		}
	}
}
