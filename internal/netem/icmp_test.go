package netem

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// icmpRx wraps an encoded ICMPv6 message as a locally delivered packet.
func icmpRx(ifc *Interface, src, dst ipv6.Addr, payload []byte) RxPacket {
	return RxPacket{Iface: ifc, Pkt: &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 255},
		Proto:   ipv6.ProtoICMPv6,
		Payload: payload,
	}}
}

// TestICMPDispatch checks HandleICMP's demultiplexing against what the
// parse-in-every-handler stack it replaced did: each type reaches exactly
// its handlers, in registration order, with the message Parse gives; bad or
// truncated messages reach none; Packet Too Big stays the node's own; Crash
// clears the table; and Drops counts as before.
func TestICMPDispatch(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Millisecond)
	n := net.NewNode("n", false)
	ifc := n.AddInterface(link)
	src, dst := ipv6.MustParseAddr("fe80::1"), ipv6.AllNodes
	g := ipv6.MustParseAddr("ff0e::7")

	var calls []string
	handler := func(id string) ICMPHandler {
		return func(rx RxPacket, m icmpv6.Msg) {
			want, err := icmpv6.Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
			if err != nil || !reflect.DeepEqual(m, want) {
				t.Errorf("%s got %+v, want the parse of its packet %+v (err %v)", id, m, want, err)
			}
			calls = append(calls, fmt.Sprintf("%s:%d", id, m.Type))
		}
	}
	n.HandleICMP(icmpv6.TypeMLDQuery, handler("a"))
	n.HandleICMP(icmpv6.TypeRouterAdvert, handler("b"))
	n.HandleICMP(icmpv6.TypeMLDReport, handler("c"))
	n.HandleICMP(icmpv6.TypeMLDQuery, handler("d"))
	n.HandleICMP(icmpv6.TypePacketTooBig, handler("never"))

	ra := &icmpv6.RouterAdvert{RouterLifetime: time.Minute}
	ra.AddPrefix(icmpv6.PrefixInfo{PrefixLen: 64, Autonomous: true, Prefix: ipv6.MustParseAddr("2001:db8:5::")})
	for _, c := range []struct {
		msg  icmpv6.Message
		want []string
	}{
		{&icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: time.Second}, []string{"a:130", "d:130"}},
		{&icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: g}, []string{"c:131"}},
		{ra, []string{"b:134"}},
		{&icmpv6.MLD{Kind: icmpv6.TypeMLDDone, MulticastAddress: g}, nil},
		{&icmpv6.RouterSolicit{}, nil},
	} {
		calls = nil
		n.DeliverLocal(icmpRx(ifc, src, dst, icmpv6.Marshal(src, dst, c.msg)))
		if !reflect.DeepEqual(calls, c.want) {
			t.Errorf("type %d reached %v, want %v", c.msg.Type(), calls, c.want)
		}
	}
	if len(n.Drops) != 0 {
		t.Errorf("a type the node has no handler for was counted as a drop: %v", n.Drops)
	}

	// A bad checksum or a truncated message reaches no handler.
	bad := icmpv6.Marshal(src, dst, &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery})
	bad[len(bad)-1] ^= 1
	short := icmpv6.Marshal(src, dst, &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery})[:10]
	for name, payload := range map[string][]byte{"bad checksum": bad, "truncated": short, "one byte": {icmpv6.TypeMLDQuery}, "empty": {}} {
		calls = nil
		n.DeliverLocal(icmpRx(ifc, src, dst, payload))
		if len(calls) != 0 {
			t.Errorf("%s message reached %v", name, calls)
		}
	}

	// Packet Too Big updates the path-MTU cache and reaches no handler.
	target := ipv6.MustParseAddr("2001:db8:9::9")
	inv, err := udpTo(ipv6.MustParseAddr("2001:db8:1::a"), target, 9, "x").Encode()
	if err != nil {
		t.Fatal(err)
	}
	gsrc := ipv6.MustParseAddr("2001:db8:2::1")
	ldst := ipv6.MustParseAddr("2001:db8:1::a")
	calls = nil
	n.DeliverLocal(icmpRx(ifc, gsrc, ldst, icmpv6.Marshal(gsrc, ldst, &icmpv6.PacketTooBig{MTU: 1300, Invoking: inv})))
	if n.PathMTU(target) != 1300 || len(calls) != 0 {
		t.Errorf("Packet Too Big: path MTU %d, handlers %v; want 1300 and none", n.PathMTU(target), calls)
	}

	// Crash clears the table: the node is then one with no ICMPv6 handler,
	// which drops the message as proto-unbound, as before.
	n.Crash()
	calls = nil
	n.DeliverLocal(icmpRx(ifc, src, dst, icmpv6.Marshal(src, dst, &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery})))
	if len(calls) != 0 {
		t.Errorf("a crashed node's handlers still ran: %v", calls)
	}
	if n.Drops["proto-unbound"] != 1 || len(n.Drops) != 1 {
		t.Errorf("drops = %v, want proto-unbound once", n.Drops)
	}
	// Packet Too Big needs no handler and is no drop.
	n.DeliverLocal(icmpRx(ifc, gsrc, ldst, icmpv6.Marshal(gsrc, ldst, &icmpv6.PacketTooBig{MTU: 1290, Invoking: inv})))
	if n.PathMTU(target) != 1290 || n.Drops["proto-unbound"] != 1 {
		t.Errorf("Packet Too Big on a handler-less node: path MTU %d, drops %v", n.PathMTU(target), n.Drops)
	}
}

// TestHandleProtoRejectsDispatchedProtocols guards against a registration
// that would never run: ICMPv6 and UDP have their own dispatch.
func TestHandleProtoRejectsDispatchedProtocols(t *testing.T) {
	_, net := testNet()
	n := net.NewNode("n", false)
	for _, proto := range []uint8{ipv6.ProtoICMPv6, ipv6.ProtoUDP} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HandleProto(%d) accepted a handler that would never run", proto)
				}
			}()
			n.HandleProto(proto, func(RxPacket) {})
		}()
	}
}
