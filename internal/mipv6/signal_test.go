package mipv6

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
)

// TestSignallingDecodesToItself checks that the Binding Update, Binding
// Ack and Binding Request packets, as the mobile node and the home agent
// build them, are what their frames decode to, so a link hands their
// receivers the sent packet (ipv6.DecodeShared returns it) and allocates
// no decoded copy.
func TestSignallingDecodesToItself(t *testing.T) {
	home := ipv6.MustParseAddr("2001:db8:1::99")
	haAddr := ipv6.MustParseAddr("2001:db8:1::1")
	careOf := ipv6.MustParseAddr("2001:db8:2::99")
	mn := &MobileNode{HomeAddress: home, Config: MNConfig{HomeAgent: haAddr}, careOf: careOf}
	pkts := map[string]*ipv6.Packet{
		"binding-ack": signalPacket(haAddr, careOf,
			(&ipv6.BindingAck{Status: ipv6.BindingAckAccepted, Sequence: 3, Lifetime: 256, Refresh: 128}).Marshal()),
		"binding-request": signalPacket(haAddr, careOf, ipv6.BindingRequest{}.Marshal()),
	}
	for name, lifetime := range map[string]time.Duration{"binding-update": time.Minute, "deregistration": 0} {
		bu, err := mn.buildBU(lifetime)
		if err != nil {
			t.Fatal(err)
		}
		pkts[name] = bu
	}
	mn.GroupList = []ipv6.Addr{ipv6.MustParseAddr("ff0e::101"), ipv6.MustParseAddr("ff0e::102")}
	bu, err := mn.buildBU(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pkts["binding-update-group-list"] = bu
	for name, pkt := range pkts {
		frame, err := pkt.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, hops, err := ipv6.DecodeShared(frame, pkt); err != nil || got != pkt || hops != 0 {
			t.Errorf("%s decodes to a copy %+v (hops %d, err %v), want the packet itself", name, got, hops, err)
		}
	}
}
