//go:build !race

// Allocation gate for the Accountant's tap, which runs on every
// transmission of every link. Excluded under -race; see scripts/check.sh
// for the non-race pass.

package metrics

import (
	"testing"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
)

func TestAccountantTapAllocFree(t *testing.T) {
	l := &netem.Link{Name: "X"}
	a := NewAccountant(&netem.Network{})
	a.Watch(l)
	tap := l.Taps[0]

	tunneled, err := ipv6.Encapsulate(ipv6.MustParseAddr("2001:db8:4::1"), ipv6.MustParseAddr("2001:db8:6::99"), 64, dataPacket(true))
	if err != nil {
		t.Fatal(err)
	}
	big := dataPacket(true)
	big.Payload = append(big.Payload, make([]byte, 3000)...)
	frags, err := ipv6.Fragment(big, ipv6.MinMTU, 1)
	if err != nil {
		t.Fatal(err)
	}
	bu, _ := (&ipv6.BindingUpdate{HomeReg: true, Sequence: 1, Lifetime: 10}).Marshal()
	pkts := []*ipv6.Packet{
		dataPacket(true),
		dataPacket(false),
		tunneled,
		frags[0],
		{Hdr: ipv6.Header{HopLimit: 1}, Proto: ipv6.ProtoPIM, Payload: []byte{0x20, 0, 0, 0}},
		{Hdr: ipv6.Header{HopLimit: 1}, Proto: ipv6.ProtoICMPv6, Payload: []byte{131, 0, 0, 0}},
		{Hdr: ipv6.Header{HopLimit: 64}, Ext: &ipv6.Ext{DestOpts: []ipv6.Option{bu}}, Proto: ipv6.ProtoNoNext},
	}
	for _, p := range pkts {
		frame, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ev := netem.TxEvent{Link: l, Frame: frame, Pkt: p}
		if allocs := testing.AllocsPerRun(100, func() { tap(ev) }); allocs != 0 {
			class, _ := ClassOf(p)
			t.Errorf("accounting a %s frame allocates %v objects", class, allocs)
		}
	}
	if a.Of(l).Total() == 0 {
		t.Error("the tap counted nothing")
	}
}
