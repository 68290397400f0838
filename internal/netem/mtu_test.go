package netem

import (
	"bytes"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

func bigUDP(src, dst ipv6.Addr, port uint16, size int) *ipv6.Packet {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	u := &ipv6.UDP{SrcPort: port, DstPort: port, Payload: payload}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
}

func TestSourceFragmentationEndToEnd(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Millisecond)
	link.MTU = 1500
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	ib := b.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:1::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)

	var got []byte
	b.BindUDP(9, func(rx RxPacket, u ipv6.UDP) { got = u.Payload })

	pkt := bigUDP(aA, bA, 9, 4000)
	want := make([]byte, 4000)
	copy(want, pkt.Payload[8:])
	if err := a.OutputOn(ia, pkt); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got == nil {
		t.Fatal("big datagram never delivered")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mangled through fragmentation")
	}
	// Multiple frames crossed the link, each within MTU.
	if link.TxFrames < 3 {
		t.Fatalf("only %d frames for a 4 kB datagram at MTU 1500", link.TxFrames)
	}
}

func TestRouterForwardsFragments(t *testing.T) {
	s := sim.NewScheduler(2)
	net := New(s)
	l1 := net.NewLink("l1", 0, time.Millisecond)
	l2 := net.NewLink("l2", 0, time.Millisecond)
	l1.MTU = 1500
	l2.MTU = 1500
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l1)
	ir1 := r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:2::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)
	r.Routes = staticRoutes{out: ir2, via: bA}

	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	// Source fragments; the router forwards each fragment unchanged.
	pkt := bigUDP(aA, bA, 9, 3000)
	ia.SendVia(pkt, ir1.LinkLocal())
	s.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1 reassembled datagram", got)
	}
	if r.Drops["too-big"] != 0 {
		t.Fatalf("router dropped fragments: %v", r.Drops)
	}
}

func TestRouterDropsTooBigItCannotFragment(t *testing.T) {
	// First link has a big MTU, second a small one: the router receives a
	// whole 4000-byte packet it did not originate and must drop it (IPv6
	// routers never fragment).
	s := sim.NewScheduler(3)
	net := New(s)
	l1 := net.NewLink("l1", 0, time.Millisecond) // MTU unlimited
	l2 := net.NewLink("l2", 0, time.Millisecond)
	l2.MTU = 1500
	a := net.NewNode("a", false)
	r := net.NewNode("r", true)
	b := net.NewNode("b", false)
	ia := a.AddInterface(l1)
	ir1 := r.AddInterface(l1)
	ir2 := r.AddInterface(l2)
	ib := b.AddInterface(l2)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:2::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)
	r.Routes = staticRoutes{out: ir2, via: bA}

	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	ia.SendVia(bigUDP(aA, bA, 9, 4000), ir1.LinkLocal())
	s.Run()
	if got != 0 {
		t.Fatal("too-big packet crossed a router that cannot fragment")
	}
	if r.Drops["too-big"] != 1 {
		t.Fatalf("drops = %v", r.Drops)
	}
}

func TestFragmentLossLeavesNoDelivery(t *testing.T) {
	// All fragments must arrive: drop injection on the link means some
	// datagrams die entirely (loss amplification, the tunnel-MTU hazard).
	s := sim.NewScheduler(4)
	net := New(s)
	link := net.NewLink("l", 0, time.Millisecond)
	link.MTU = 1500
	link.LossRate = 0.2
	a := net.NewNode("a", false)
	b := net.NewNode("b", false)
	ia := a.AddInterface(link)
	ib := b.AddInterface(link)
	aA := ipv6.MustParseAddr("2001:db8:1::a")
	bA := ipv6.MustParseAddr("2001:db8:1::b")
	ia.AddAddr(aA)
	ib.AddAddr(bA)

	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	const n = 500
	for i := 0; i < n; i++ {
		a.OutputOn(ia, bigUDP(aA, bA, 9, 2500)) // 2 fragments each
	}
	s.Run()
	// Per-datagram survival ≈ 0.8² = 0.64; allow generous slack.
	ratio := float64(got) / n
	if ratio < 0.55 || ratio > 0.73 {
		t.Fatalf("delivery ratio %.3f for 2-fragment datagrams at 20%% loss, want ≈0.64", ratio)
	}
}
