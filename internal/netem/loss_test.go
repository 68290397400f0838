package netem

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

func TestLossRateDropsApproximately(t *testing.T) {
	s := sim.NewScheduler(42)
	net := New(s)
	link := net.NewLink("lossy", 0, 0)
	link.LossRate = 0.3
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
	const n = 2000
	for i := 0; i < n; i++ {
		a.OutputOn(ia, udpTo(aA, bA, 9, "x"))
	}
	s.Run()
	if got < n*6/10 || got > n*8/10 {
		t.Fatalf("delivered %d of %d at loss 0.3", got, n)
	}
	if link.LostDeliveries != uint64(n-got) {
		t.Fatalf("LostDeliveries = %d, want %d", link.LostDeliveries, n-got)
	}
	// Transmissions are still counted: the bytes were spent.
	if link.TxFrames != n {
		t.Fatalf("TxFrames = %d", link.TxFrames)
	}
}

func TestLossIsPerReceiver(t *testing.T) {
	s := sim.NewScheduler(7)
	net := New(s)
	link := net.NewLink("lossy", 0, 0)
	link.LossRate = 0.5
	src := net.NewNode("src", false)
	isrc := src.AddInterface(link)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	g := ipv6.MustParseAddr("ff0e::7")

	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		m := net.NewNode([]string{"m1", "m2"}[i], false)
		im := m.AddInterface(link)
		im.JoinGroup(g)
		m.BindUDP(9, func(RxPacket, ipv6.UDP) { counts[i]++ })
	}
	const n = 1000
	for i := 0; i < n; i++ {
		src.OutputOn(isrc, udpTo(sA, g, 9, "m"))
	}
	s.Run()
	// Both receivers lose independently: each ~50%, and the loss patterns
	// must differ (joint count ~25% if independent, impossible to equal
	// both if correlated fully).
	for i, c := range counts {
		if c < n*4/10 || c > n*6/10 {
			t.Fatalf("receiver %d got %d of %d at loss 0.5", i, c, n)
		}
	}
	if counts[0] == counts[1] && link.LostDeliveries == uint64(2*(n-counts[0])) {
		t.Log("warning: identical counts; acceptable but unlikely")
	}
	if link.LostDeliveries == 0 {
		t.Fatal("no losses recorded")
	}
}

func TestZeroLossDeliversAll(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("clean", 0, time.Microsecond)
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
	for i := 0; i < 500; i++ {
		a.OutputOn(ia, udpTo(aA, bA, 9, "x"))
	}
	s.Run()
	if got != 500 || link.LostDeliveries != 0 {
		t.Fatalf("got %d, lost %d", got, link.LostDeliveries)
	}
}
