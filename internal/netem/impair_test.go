package netem

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// impairRig is a one-link bus: one sender, two multicast listeners.
type impairRig struct {
	s    *sim.Scheduler
	link *Link
	src  *Node
	isrc *Interface
	sA   ipv6.Addr
	g    ipv6.Addr
	got  int
	seqs []int
}

func newImpairRig(seed int64) *impairRig {
	s := sim.NewScheduler(seed)
	net := New(s)
	r := &impairRig{
		s:    s,
		link: net.NewLink("l", 0, time.Millisecond),
		sA:   ipv6.MustParseAddr("2001:db8:1::1"),
		g:    ipv6.MustParseAddr("ff0e::7"),
	}
	r.src = net.NewNode("src", false)
	r.isrc = r.src.AddInterface(r.link)
	r.isrc.AddAddr(r.sA)
	for i := 0; i < 2; i++ {
		m := net.NewNode(fmt.Sprintf("m%d", i), false)
		im := m.AddInterface(r.link)
		im.JoinGroup(r.g)
		m.BindUDP(9, func(_ RxPacket, u ipv6.UDP) {
			r.got++
			var seq int
			if _, err := fmt.Sscanf(string(u.Payload), "seq=%d", &seq); err == nil {
				r.seqs = append(r.seqs, seq)
			}
		})
	}
	return r
}

// blast schedules n spaced multicast sends and runs to completion.
func (r *impairRig) blast(n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		r.s.Schedule(time.Duration(i)*gap, func() {
			r.src.OutputOn(r.isrc, udpTo(r.sA, r.g, 9, fmt.Sprintf("seq=%d", i)))
		})
	}
	r.s.Run()
}

// checkIdentity asserts the link accounting invariant: every attempted
// per-receiver delivery is either delivered or accounted as lost, and
// received datagram count equals deliveries minus corruption-induced
// decode failures.
func (r *impairRig) checkIdentity(t *testing.T) {
	t.Helper()
	l := r.link
	if l.AttemptedDeliveries != l.Delivered+l.LostDeliveries {
		t.Fatalf("accounting identity broken: attempted=%d delivered=%d lost=%d",
			l.AttemptedDeliveries, l.Delivered, l.LostDeliveries)
	}
	if want := l.Delivered - l.CorruptedDeliveries; uint64(r.got) != want {
		t.Fatalf("received %d datagrams, want delivered-corrupted = %d-%d = %d",
			r.got, l.Delivered, l.CorruptedDeliveries, want)
	}
}

func TestImpairmentAccountingIdentity(t *testing.T) {
	cases := []struct {
		name string
		loss float64
		imp  *Impairment
	}{
		{name: "clean"},
		{name: "loss", loss: 0.3},
		{name: "jitter", imp: &Impairment{Jitter: 10 * time.Millisecond}},
		{name: "reorder", imp: &Impairment{ReorderProb: 0.3, ReorderDelay: 5 * time.Millisecond}},
		{name: "dup", imp: &Impairment{DupProb: 0.4}},
		{name: "corrupt", imp: &Impairment{CorruptProb: 0.2}},
		{name: "burst", imp: &Impairment{PGB: 0.1, PBG: 0.3, GoodLoss: 0.02, BadLoss: 0.9}},
		{name: "everything", loss: 0.1, imp: &Impairment{
			Jitter: 5 * time.Millisecond, ReorderProb: 0.2, ReorderDelay: 4 * time.Millisecond,
			DupProb: 0.2, CorruptProb: 0.1, PGB: 0.1, PBG: 0.4, GoodLoss: 0.01, BadLoss: 0.5,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newImpairRig(7)
			r.link.LossRate = tc.loss
			r.link.Impair = tc.imp
			const n = 1000
			r.blast(n, 500*time.Microsecond)
			if r.link.AttemptedDeliveries < 2*n {
				t.Fatalf("attempted %d deliveries, want >= %d", r.link.AttemptedDeliveries, 2*n)
			}
			r.checkIdentity(t)
		})
	}
}

func TestDuplicationDelivers(t *testing.T) {
	r := newImpairRig(3)
	r.link.Impair = &Impairment{DupProb: 1}
	const n = 500
	r.blast(n, time.Millisecond)
	if r.got != 2*2*n { // 2 receivers × (original + duplicate)
		t.Fatalf("got %d datagrams with DupProb=1, want %d", r.got, 2*2*n)
	}
	if r.link.DupDeliveries != 2*n {
		t.Fatalf("DupDeliveries = %d, want %d", r.link.DupDeliveries, 2*n)
	}
	r.checkIdentity(t)
}

func TestCorruptionSurfacesAsDecodeFailure(t *testing.T) {
	r := newImpairRig(4)
	r.link.Impair = &Impairment{CorruptProb: 1}
	const n = 300
	r.blast(n, time.Millisecond)
	if r.got != 0 {
		t.Fatalf("got %d datagrams with CorruptProb=1, want 0 (decode must fail)", r.got)
	}
	if r.link.CorruptedDeliveries != 2*n {
		t.Fatalf("CorruptedDeliveries = %d, want %d", r.link.CorruptedDeliveries, 2*n)
	}
	// Corruption is not loss: the bytes crossed the wire.
	if r.link.Delivered != r.link.AttemptedDeliveries {
		t.Fatalf("corruption counted as loss: delivered=%d attempted=%d",
			r.link.Delivered, r.link.AttemptedDeliveries)
	}
	r.checkIdentity(t)
}

func TestReorderingChangesArrivalOrder(t *testing.T) {
	r := newImpairRig(5)
	r.link.Impair = &Impairment{ReorderProb: 0.2, ReorderDelay: 5 * time.Millisecond}
	const n = 500
	r.blast(n, time.Millisecond)
	if r.got != 2*n {
		t.Fatalf("got %d datagrams, want %d (reordering must not drop)", r.got, 2*n)
	}
	if r.link.ReorderedDeliveries == 0 {
		t.Fatal("no deliveries marked reordered at ReorderProb=0.2")
	}
	inversions := 0
	for i := 1; i < len(r.seqs); i++ {
		if r.seqs[i] < r.seqs[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("arrival sequence is fully ordered despite reordering")
	}
	r.checkIdentity(t)
}

func TestJitterSpreadsArrivalsWithoutLoss(t *testing.T) {
	r := newImpairRig(6)
	r.link.Impair = &Impairment{Jitter: 10 * time.Millisecond}
	const n = 400
	r.blast(n, time.Millisecond)
	if r.got != 2*n {
		t.Fatalf("got %d datagrams, want %d (jitter must not drop)", r.got, 2*n)
	}
	r.checkIdentity(t)
}

func TestGilbertElliottLossIsBursty(t *testing.T) {
	r := newImpairRig(8)
	// Stationary bad-state probability PGB/(PGB+PBG) = 0.25; BadLoss=1 and
	// GoodLoss=0 make the loss ratio equal the bad-state dwell fraction.
	r.link.Impair = &Impairment{PGB: 0.1, PBG: 0.3, GoodLoss: 0, BadLoss: 1}
	const n = 4000
	r.blast(n, 250*time.Microsecond)
	lossRatio := float64(r.link.LostDeliveries) / float64(r.link.AttemptedDeliveries)
	if lossRatio < 0.15 || lossRatio > 0.35 {
		t.Fatalf("GE loss ratio %.3f, want ≈0.25", lossRatio)
	}
	// Burstiness: losses come in runs, so the per-sequence loss pattern
	// must contain consecutive-loss runs far longer than independent loss
	// at the same ratio would produce (P(run≥8) ≈ 0.25^8 ≈ 1e-5 iid).
	seen := make(map[int]int, n)
	for _, q := range r.seqs {
		seen[q]++
	}
	run, maxRun := 0, 0
	for i := 0; i < n; i++ {
		if seen[i] == 0 { // lost for both receivers: whole-bus bad state
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 5 {
		t.Fatalf("longest whole-bus loss burst %d, want >= 5 (GE must correlate losses)", maxRun)
	}
	r.checkIdentity(t)
}

func TestLinkDownDropsAndRestores(t *testing.T) {
	r := newImpairRig(9)
	if !r.link.Up() {
		t.Fatal("new link reports down")
	}
	r.link.SetUp(false)
	const n = 100
	r.blast(n, time.Millisecond)
	if r.got != 0 {
		t.Fatalf("got %d datagrams through a down link", r.got)
	}
	if r.link.DownDrops != n {
		t.Fatalf("DownDrops = %d, want %d", r.link.DownDrops, n)
	}
	r.link.SetUp(true)
	r.blast(n, time.Millisecond)
	if r.got != 2*n {
		t.Fatalf("got %d datagrams after SetUp(true), want %d", r.got, 2*n)
	}
	r.checkIdentity(t)
}
