package trace_test

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/trace"
)

// describe wraps a packet into a synthetic TxEvent.
func describe(t *testing.T, pkt *ipv6.Packet) trace.Event {
	t.Helper()
	frame, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return trace.Describe(netem.TxEvent{Link: &netem.Link{Name: "X"}, Frame: frame, Pkt: pkt})
}

var (
	src = ipv6.MustParseAddr("2001:db8:1::1")
	dst = ipv6.MustParseAddr("2001:db8:2::2")
)

func TestClassifyMobilityOptions(t *testing.T) {
	mk := func(opt ipv6.Option) *ipv6.Packet {
		return &ipv6.Packet{
			Hdr:   ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
			Ext:   &ipv6.Ext{DestOpts: []ipv6.Option{opt}},
			Proto: ipv6.ProtoNoNext,
		}
	}
	ack := (&ipv6.BindingAck{Status: 0, Sequence: 5, Lifetime: 100}).Marshal()
	if ev := describe(t, mk(ack)); ev.Kind != "back" || !strings.Contains(ev.Detail, "seq=5") {
		t.Errorf("binding ack event: %+v", ev)
	}
	if ev := describe(t, mk(ipv6.BindingRequest{}.Marshal())); ev.Kind != "breq" {
		t.Errorf("binding request event: %+v", ev)
	}
}

func TestClassifyPIMKinds(t *testing.T) {
	wrap := func(msg pimdm.Message) *ipv6.Packet {
		s := ipv6.LinkLocalFromIID(1)
		body, err := pimdm.Marshal(s, ipv6.AllPIMRouters, msg)
		if err != nil {
			t.Fatal(err)
		}
		return &ipv6.Packet{
			Hdr:     ipv6.Header{Src: s, Dst: ipv6.AllPIMRouters, HopLimit: 1},
			Proto:   ipv6.ProtoPIM,
			Payload: body,
		}
	}
	g := ipv6.MustParseAddr("ff0e::1")
	sr := &pimdm.StateRefresh{Group: g, Source: src, Originator: src, TTL: 3, PruneIndicator: true, Interval: 30 * time.Second}
	if ev := describe(t, wrap(sr)); ev.Kind != "pim-staterefresh" || !strings.Contains(ev.Detail, "P") {
		t.Errorf("state refresh event: %+v", ev)
	}
	assert := &pimdm.Assert{Group: g, Source: src, MetricPreference: 101, Metric: 2}
	if ev := describe(t, wrap(assert)); ev.Kind != "pim-assert" {
		t.Errorf("assert event: %+v", ev)
	}
	graft := &pimdm.JoinPrune{Kind: pimdm.TypeGraft, UpstreamNeighbor: src,
		Groups: []pimdm.JoinPruneGroup{{Group: g, Joins: []ipv6.Addr{src}}}}
	if ev := describe(t, wrap(graft)); ev.Kind != "pim-graft" {
		t.Errorf("graft event: %+v", ev)
	}
	mixed := &pimdm.JoinPrune{Kind: pimdm.TypeJoinPrune, UpstreamNeighbor: src,
		Groups: []pimdm.JoinPruneGroup{{Group: g, Joins: []ipv6.Addr{src}, Prunes: []ipv6.Addr{dst}}}}
	if ev := describe(t, wrap(mixed)); ev.Kind != "pim-joinprune" {
		t.Errorf("mixed join/prune event: %+v", ev)
	}
}

func TestClassifyMiscKinds(t *testing.T) {
	// Plain unicast UDP.
	u := &ipv6.UDP{SrcPort: 1, DstPort: 2, Payload: []byte("x")}
	udp := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto: ipv6.ProtoUDP, Payload: u.Marshal(src, dst)}
	if ev := describe(t, udp); ev.Kind != "udp" {
		t.Errorf("udp event: %+v", ev)
	}
	// No next header.
	none := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 64}, Proto: ipv6.ProtoNoNext}
	if ev := describe(t, none); ev.Kind != "none" {
		t.Errorf("none event: %+v", ev)
	}
	// Unknown upper-layer protocol.
	odd := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 64}, Proto: 200, Payload: []byte{1}}
	if ev := describe(t, odd); ev.Kind != "proto200" {
		t.Errorf("unknown-proto event: %+v", ev)
	}
	// Garbage PIM and ICMPv6 payloads degrade gracefully.
	badPim := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		Proto: ipv6.ProtoPIM, Payload: []byte{0xff, 0, 0, 0}}
	if ev := describe(t, badPim); ev.Kind != "pim?" {
		t.Errorf("bad pim event: %+v", ev)
	}
	badIcmp := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		Proto: ipv6.ProtoICMPv6, Payload: []byte{0xff, 0, 0, 0}}
	if ev := describe(t, badIcmp); ev.Kind != "icmp6?" {
		t.Errorf("bad icmp event: %+v", ev)
	}
}

func TestClassifyFragment(t *testing.T) {
	big := &ipv6.Packet{Hdr: ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto: ipv6.ProtoUDP, Payload: make([]byte, 3000)}
	frags, err := ipv6.Fragment(big, 1280, 42)
	if err != nil {
		t.Fatal(err)
	}
	ev := describe(t, frags[1])
	if ev.Kind != "fragment" || !strings.Contains(ev.Detail, "id=42") {
		t.Errorf("fragment event: %+v", ev)
	}
}
