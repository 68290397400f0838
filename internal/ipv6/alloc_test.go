//go:build !race

// Allocation budgets for tunnel encapsulation, the per-packet cost every
// reverse-tunneled multicast datagram pays twice (encap at the mobile node,
// decap+re-encap paths at the home agent), and for the link's shared
// decode. Excluded under -race; see scripts/check.sh for the non-race pass.

package ipv6

import "testing"

// tunnelEncapAllocBudget is the measured cost: the outer Packet. The inner
// packet is shared, not encoded (that happens once, into the link's frame
// buffer). Raise only with a benchmark showing why the extra allocation is
// unavoidable.
const tunnelEncapAllocBudget = 1

func TestTunnelEncapAllocBudget(t *testing.T) {
	inner := &Packet{
		Hdr:     Header{Src: MustParseAddr("2001:db8::1"), Dst: MustParseAddr("ff0e::7"), HopLimit: 64},
		Proto:   ProtoUDP,
		Payload: make([]byte, 256),
	}
	src := MustParseAddr("2001:db8:1::1")
	dst := MustParseAddr("2001:db8:2::1")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Encapsulate(src, dst, 64, inner); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > tunnelEncapAllocBudget {
		t.Errorf("Encapsulate allocates %v objects/op; budget %d", allocs, tunnelEncapAllocBudget)
	}
}

// TestDecodeSharedAllocBudget pins the link decode at no allocation: a
// frame decoded against the packet it was encoded from is that packet,
// plain or tunneled, with options or without, and whether the tunneled
// inner packet was built by hand or decoded (as it is when a home agent
// tunnels the packet it received).
func TestDecodeSharedAllocBudget(t *testing.T) {
	inner := &Packet{
		Hdr:     Header{Src: MustParseAddr("2001:db8::1"), Dst: MustParseAddr("ff0e::7"), HopLimit: 64},
		Proto:   ProtoUDP,
		Payload: make([]byte, 256),
	}
	ha, dst := MustParseAddr("2001:db8:1::1"), MustParseAddr("2001:db8:2::1")
	outer, err := Encapsulate(ha, dst, 64, inner)
	if err != nil {
		t.Fatal(err)
	}
	innerFrame, err := inner.Encode()
	if err != nil {
		t.Fatal(err)
	}
	received, err := Decode(innerFrame)
	if err != nil {
		t.Fatal(err)
	}
	haOuter, err := Encapsulate(ha, dst, 64, received)
	if err != nil {
		t.Fatal(err)
	}
	// An MLD Query's shape: a Router Alert hop-by-hop option.
	query := &Packet{
		Hdr:      Header{Src: LinkLocalFromIID(1), Dst: AllNodes, HopLimit: 1},
		HopByHop: []Option{RouterAlertOption(RouterAlertMLD)},
		Proto:    ProtoICMPv6,
		Payload:  make([]byte, 24),
	}
	// A mobile node's datagram from its care-of address.
	homeOpt := *inner
	homeOpt.DestOpts = []Option{(&HomeAddressOption{HomeAddress: MustParseAddr("2001:db8:9::1")}).Marshal()}
	for _, c := range []struct {
		name string
		pkt  *Packet
	}{{"plain", inner}, {"tunneled", outer}, {"tunneled-decoded-inner", haOuter},
		{"router-alert", query}, {"home-address-option", &homeOpt}} {
		frame, err := c.pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, err := DecodeShared(frame, c.pkt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: DecodeShared allocates %v objects/op; budget 0", c.name, allocs)
		}
	}
}
