package netem

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// xregionNet builds a two-region network joined by one split point-to-point
// link: node a (region 0) — x — node b (region 1), 10ms one-way delay.
func xregionNet(workers int) (*sim.Kernel, *Network, *Node, *Node, *Link) {
	r0 := sim.NewScheduler(1)
	r1 := sim.NewScheduler(1)
	k := sim.NewKernel([]*sim.Scheduler{r0, r1}, 10*time.Millisecond, workers)

	net := New(r0)
	net.SetRegions(2)
	x := net.NewLink("x", 0, 10*time.Millisecond)
	x.SetSched(r0)
	xb := net.SplitLink(x)
	xb.SetSched(r1)

	a := net.NewNode("a", false)
	a.SetSched(r0)
	b := net.NewNode("b", false)
	b.SetSched(r1)
	a.AddInterface(x).AddAddr(ipv6.MustParseAddr("2001:db8:1::a"))
	b.AddInterface(xb).AddAddr(ipv6.MustParseAddr("2001:db8:1::b"))
	return k, net, a, b, x
}

// A split link must deliver in both directions at the exact propagation
// delay, with each half counting its own transmissions.
func TestSplitLinkDelivery(t *testing.T) {
	k, _, a, b, x := xregionNet(2)
	aAddr := ipv6.MustParseAddr("2001:db8:1::a")
	bAddr := ipv6.MustParseAddr("2001:db8:1::b")

	var bGot []string
	b.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
		bGot = append(bGot, fmt.Sprintf("%v:%s", b.Sched().Now(), u.Payload))
		// Reply crosses back over the same split link.
		_ = b.OutputOn(b.Ifaces[0], udpTo(bAddr, aAddr, 9, "re-"+string(u.Payload)))
	})
	var aGot []string
	a.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
		aGot = append(aGot, fmt.Sprintf("%v:%s", a.Sched().Now(), u.Payload))
	})

	a.Sched().Schedule(0, func() {
		_ = a.OutputOn(a.Ifaces[0], udpTo(aAddr, bAddr, 9, "ping"))
	})
	k.RunUntil(sim.Time(time.Second))

	if len(bGot) != 1 || bGot[0] != "0.010s:ping" {
		t.Fatalf("b received %v, want [0.010s:ping]", bGot)
	}
	if len(aGot) != 1 || aGot[0] != "0.020s:re-ping" {
		t.Fatalf("a received %v, want [0.020s:re-ping]", aGot)
	}
	if x.TxFrames != 1 || x.Peer().TxFrames != 1 {
		t.Fatalf("per-half TxFrames = %d/%d, want 1/1", x.TxFrames, x.Peer().TxFrames)
	}
	if x.Delivered != 1 || x.Peer().Delivered != 1 {
		t.Fatalf("per-half Delivered = %d/%d, want 1/1", x.Delivered, x.Peer().Delivered)
	}
}

// Heavy bidirectional traffic over a split link must produce the identical
// delivery timeline regardless of worker count, including under impairment
// (jitter/reorder draws come from each half's own region streams).
func TestSplitLinkDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []string {
		k, _, a, b, x := xregionNet(workers)
		x.Impair = &Impairment{Jitter: 2 * time.Millisecond, DupProb: 0.1}
		x.Peer().Impair = x.Impair
		aAddr := ipv6.MustParseAddr("2001:db8:1::a")
		bAddr := ipv6.MustParseAddr("2001:db8:1::b")

		var logA, logB []string
		a.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
			logA = append(logA, fmt.Sprintf("a@%v:%s", a.Sched().Now(), u.Payload))
		})
		b.BindUDP(9, func(rx RxPacket, u ipv6.UDP) {
			logB = append(logB, fmt.Sprintf("b@%v:%s", b.Sched().Now(), u.Payload))
		})
		for i := 0; i < 50; i++ {
			i := i
			a.Sched().Schedule(time.Duration(i)*3*time.Millisecond, func() {
				_ = a.OutputOn(a.Ifaces[0], udpTo(aAddr, bAddr, 9, fmt.Sprintf("a%d", i)))
			})
			b.Sched().Schedule(time.Duration(i)*5*time.Millisecond, func() {
				_ = b.OutputOn(b.Ifaces[0], udpTo(bAddr, aAddr, 9, fmt.Sprintf("b%d", i)))
			})
		}
		k.RunUntil(sim.Time(time.Second))
		return append(logA, logB...)
	}
	w1, w4 := run(1), run(4)
	if len(w1) < 100 {
		t.Fatalf("only %d deliveries", len(w1))
	}
	if len(w1) != len(w4) {
		t.Fatalf("delivery counts differ: %d vs %d", len(w1), len(w4))
	}
	for i := range w1 {
		if w1[i] != w4[i] {
			t.Fatalf("timelines diverge at %d: %q vs %q", i, w1[i], w4[i])
		}
	}
}

// Cutting a split link silences both directions; Move across regions panics.
func TestSplitLinkDownAndMoveGuard(t *testing.T) {
	k, net, a, b, x := xregionNet(2)
	aAddr := ipv6.MustParseAddr("2001:db8:1::a")
	bAddr := ipv6.MustParseAddr("2001:db8:1::b")
	got := 0
	b.BindUDP(9, func(RxPacket, ipv6.UDP) { got++ })
	x.SetUp(false)
	a.Sched().Schedule(0, func() {
		_ = a.OutputOn(a.Ifaces[0], udpTo(aAddr, bAddr, 9, "x"))
	})
	b.Sched().Schedule(0, func() {
		_ = b.OutputOn(b.Ifaces[0], udpTo(bAddr, aAddr, 9, "y"))
	})
	k.RunUntil(sim.Time(100 * time.Millisecond))
	if got != 0 {
		t.Fatalf("delivered %d frames over a downed split link", got)
	}
	if x.DownDrops != 1 || x.Peer().DownDrops != 1 {
		t.Fatalf("DownDrops = %d/%d, want 1/1", x.DownDrops, x.Peer().DownDrops)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("cross-region Move did not panic")
		}
	}()
	net.Move(a.Ifaces[0], x.Peer())
}
