package mip6mcast

// One benchmark per paper artifact (DESIGN.md §4): each regenerates the
// table/figure's numbers and reports them as custom benchmark metrics, so
// `go test -bench .` reproduces the evaluation. Absolute wall-clock speed
// is secondary; the reported metrics are the point.

import (
	"strconv"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

func BenchmarkF1InitialTree(b *testing.B) {
	var res F1Result
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions()
		opt.Seed = int64(i + 1)
		res = sweepPoints[F1Result](b, runExp(b, "f1", ExpContext{Opt: opt}, nil))[0]
	}
	b.ReportMetric(float64(res.FloodFramesL5), "floodframesL5")
	b.ReportMetric(float64(res.DataBytesPerLink["L4"]), "bytesL4")
	b.ReportMetric(float64(res.Delivered["R3"]), "deliveredR3")
}

func BenchmarkF2MobileReceiverLocal(b *testing.B) {
	// The f2 experiment's points 0 and 1 are the two report policies.
	for pt, name := range []string{"unsolicited", "waitforquery"} {
		b.Run(name, func(b *testing.B) {
			var res F2Result
			for i := 0; i < b.N; i++ {
				opt := DefaultOptions()
				opt.Seed = int64(i + 1)
				res = sweepPoints[F2Result](b, runExp(b, "f2", ExpContext{Opt: opt}, nil))[pt]
			}
			b.ReportMetric(res.JoinDelay.Seconds()*1000, "join-ms")
			b.ReportMetric(res.LeaveDelay.Seconds(), "leave-s")
			b.ReportMetric(float64(res.WastedBytes), "wasted-B")
		})
	}
}

func BenchmarkF3MobileReceiverTunnel(b *testing.B) {
	// The f3 experiment's points 0 and 1 are the two tunnel variants.
	for pt, name := range []string{"grouplist-bu", "tunneled-mld"} {
		b.Run(name, func(b *testing.B) {
			var res F3Result
			for i := 0; i < b.N; i++ {
				opt := DefaultOptions()
				opt.Seed = int64(i + 1)
				res = sweepPoints[F3Result](b, runExp(b, "f3", ExpContext{Opt: opt}, nil))[pt]
			}
			b.ReportMetric(res.JoinDelay.Seconds()*1000, "join-ms")
			b.ReportMetric(res.MeanHops, "hops")
			b.ReportMetric(float64(res.TunnelOverheadBytes), "tunnel-B")
		})
	}
}

func BenchmarkF4MobileSenderTunnel(b *testing.B) {
	// The f4 experiment's points 0 and 1 are the two send modes.
	for pt, name := range []string{"reverse-tunnel", "local-send"} {
		b.Run(name, func(b *testing.B) {
			var res F4Result
			for i := 0; i < b.N; i++ {
				opt := DefaultOptions()
				opt.Seed = int64(i + 1)
				res = sweepPoints[F4Result](b, runExp(b, "f4", ExpContext{Opt: opt}, nil))[pt]
			}
			b.ReportMetric(float64(res.NewTreesBuilt), "newtrees")
			b.ReportMetric(float64(res.PeakSGEntries), "peakSG")
			b.ReportMetric(float64(res.TunnelOverheadBytes), "tunnel-B")
		})
	}
}

// BenchmarkF5SubOptionCodec measures the paper's Figure 5 wire format:
// encode+parse of a Multicast Group List sub-option inside a full Binding
// Update destination option inside an encoded IPv6 packet.
func BenchmarkF5SubOptionCodec(b *testing.B) {
	groups := []ipv6.Addr{
		ipv6.MustParseAddr("ff0e::101"),
		ipv6.MustParseAddr("ff0e::102"),
		ipv6.MustParseAddr("ff05::33"),
	}
	src := ipv6.MustParseAddr("2001:db8:6::99")
	dst := ipv6.MustParseAddr("2001:db8:4::1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bu := &ipv6.BindingUpdate{Ack: true, HomeReg: true, Sequence: uint16(i), Lifetime: 256, GroupList: groups}
		opt, err := bu.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		pkt := &ipv6.Packet{
			Hdr:   ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
			Ext:   &ipv6.Ext{DestOpts: []ipv6.Option{opt}},
			Proto: ipv6.ProtoNoNext,
		}
		wire, err := pkt.Encode()
		if err != nil {
			b.Fatal(err)
		}
		back, err := ipv6.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipv6.ParseBindingUpdate(back.DestOpts()[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproachComparison regenerates the T1 movement-scenario table
// across every registered approach (the paper's four plus the proxy
// hierarchy) and reports each one's rejoin delay.
func BenchmarkApproachComparison(b *testing.B) {
	var rows []T1Row
	for i := 0; i < b.N; i++ {
		opt := FastMLDOptions(30)
		opt.Seed = int64(i + 1)
		rows = sweepPoints[T1Row](b, runExp(b, "t1", ExpContext{Opt: opt}, nil))
	}
	for _, r := range rows {
		b.ReportMetric(r.JoinDelayR3.Seconds()*1000, r.Approach.String()+"-join-ms")
	}
}

func BenchmarkS44TimerSweep(b *testing.B) {
	qs := []int{10, 30, 125}
	var res ExpResult
	for i := 0; i < b.N; i++ {
		res = runExp(b, "s44", ExpContext{Opt: DefaultOptions(), Replicates: 2},
			ExpParams{"tquery": qs, "unsolicited": false})
	}
	for i, pt := range res.Stats {
		b.ReportMetric(pt.Mean("join(s)"), "join-s-tq"+strconv.Itoa(qs[i]))
	}
}

func BenchmarkS431SenderFloodCost(b *testing.B) {
	var res S431Result
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions()
		opt.Seed = int64(i + 1)
		res = sweepPoints[S431Result](b, runExp(b, "s431", ExpContext{Opt: opt},
			ExpParams{"moves": []int{4}, "dwell": 45}))[0]
	}
	b.ReportMetric(float64(res.RefloodBytes), "reflood-B")
	b.ReportMetric(float64(res.Asserts), "asserts")
	b.ReportMetric(float64(res.PeakSG), "peakSG")
}

func BenchmarkS432TunnelConvergence(b *testing.B) {
	var points []S432Point
	for i := 0; i < b.N; i++ {
		opt := FastMLDOptions(30)
		opt.Seed = int64(i + 1)
		points = sweepPoints[S432Point](b, runExp(b, "s432", ExpContext{Opt: opt},
			ExpParams{"n": []int{1, 4}}))
	}
	b.ReportMetric(points[1].TunnelBytesPerDgram/points[1].LocalBytesPerDgram, "tunnel/local-x-at-N4")
}

// BenchmarkSMGMultiGroup regenerates the multi-group scaling table,
// including the Figure 5 capacity cliff at 15 groups and the tunneled-MLD
// fallback beyond it.
func BenchmarkSMGMultiGroup(b *testing.B) {
	var points []SMGPoint
	for i := 0; i < b.N; i++ {
		opt := FastMLDOptions(30)
		opt.Seed = int64(i + 1)
		points = sweepPoints[SMGPoint](b, runExp(b, "smg", ExpContext{Opt: opt},
			ExpParams{"groups": []int{4, 40}, "tquery": 0, "approach": "uni-tunnel-ha-to-mn"}))
	}
	b.ReportMetric(float64(points[0].MaxBUBytes), "bu-B-at-4")
	b.ReportMetric(float64(points[1].MaxBUBytes), "bu-B-at-40")
	b.ReportMetric(points[1].JoinDelays.Max(), "join-max-s-at-40")
}

// BenchmarkSMTUTunnelBoundary regenerates the tunnel-MTU table: frames per
// datagram on the tunnel path just below and above the fragmentation
// boundary.
func BenchmarkSMTUTunnelBoundary(b *testing.B) {
	var pts []SMTUPoint
	for i := 0; i < b.N; i++ {
		opt := FastMLDOptions(30)
		opt.Seed = int64(i + 1)
		pts = sweepPoints[SMTUPoint](b, runExp(b, "smtu", ExpContext{Opt: opt},
			ExpParams{"payloads": []int{1412, 1413}, "losses": []float64{0}, "tquery": 0}))
	}
	b.ReportMetric(pts[0].TunnelFramesPerDgram, "frames-at-1500B")
	b.ReportMetric(pts[1].TunnelFramesPerDgram, "frames-at-1501B")
}

// --- ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationStateRefresh quantifies the RFC 3973 extension: data
// bytes wasted on the pruned branch with plain flood-and-prune (periodic
// re-floods) versus with State Refresh keeping prune state alive.
func BenchmarkAblationStateRefresh(b *testing.B) {
	run := func(seed int64, refresh time.Duration) uint64 {
		opt := DefaultOptions()
		opt.Seed = seed
		opt.PIM.PruneHoldtime = 30 * time.Second
		opt.PIM.DataTimeout = 20 * time.Minute
		opt.PIM.StateRefreshInterval = refresh
		r := NewRun(opt, LocalMembership, 100*time.Millisecond, 256)
		w5 := r.WatchLink("L5")
		w6 := r.WatchLink("L6")
		r.F.Run(10 * time.Minute)
		return w5.Bytes + w6.Bytes
	}
	var off, on uint64
	for i := 0; i < b.N; i++ {
		off = run(int64(i+1), 0)
		on = run(int64(i+1), 15*time.Second)
	}
	b.ReportMetric(float64(off), "refloodB-off")
	b.ReportMetric(float64(on), "refloodB-on")
	if on > 0 {
		b.ReportMetric(float64(off)/float64(on), "suppression-x")
	}
}

// BenchmarkAblationCodecVsNoCodec quantifies design decision 1: carrying
// encoded bytes on links (decode at every hop) versus passing parsed
// packets by reference.
func BenchmarkAblationCodecVsNoCodec(b *testing.B) {
	src := ipv6.MustParseAddr("2001:db8:1::1")
	dst := ipv6.MustParseAddr("ff0e::101")
	u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: make([]byte, 512)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
	b.Run("wire-codec-per-hop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire, err := pkt.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ipv6.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clone-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := pkt.Clone()
			q.Hdr.HopLimit--
		}
	})
}

// BenchmarkAblationParallelSweep quantifies design decision 2: replicate
// runs across goroutines versus sequential execution.
func BenchmarkAblationParallelSweep(b *testing.B) {
	body := func(i int) {
		opt := DefaultOptions()
		opt.Seed = int64(i + 1)
		r := NewRun(opt, LocalMembership, 100*time.Millisecond, 64)
		r.F.Run(30 * time.Second)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.RunParallel(8, w.workers, body)
			}
		})
	}
}

// BenchmarkSteadyStateForwarding measures the full-stack packet rate of the
// Figure 1 network in converged streaming state (virtual-seconds of network
// operation per wall-clock benchmark iteration).
func BenchmarkSteadyStateForwarding(b *testing.B) {
	opt := DefaultOptions()
	r := NewRun(opt, LocalMembership, 10*time.Millisecond, 256)
	r.F.Run(30 * time.Second) // converge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.F.Run(time.Second) // 100 datagrams across the tree
	}
	b.StopTimer()
	b.ReportMetric(float64(r.F.Sched.Processed())/float64(b.N), "events/iter")
}

// BenchmarkObsOverhead quantifies the observability layer's cost on the
// same converged streaming workload as BenchmarkSteadyStateForwarding:
// "off" runs with no recorder (every hook is an untaken nil-check branch —
// this must stay within noise of the plain run), "on" records every state
// transition plus all link transmissions.
func BenchmarkObsOverhead(b *testing.B) {
	bench := func(b *testing.B, rec *obs.Recorder) {
		opt := DefaultOptions()
		opt.Obs = rec
		r := NewRun(opt, LocalMembership, 10*time.Millisecond, 256)
		r.F.Run(30 * time.Second) // converge
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.F.Run(time.Second)
		}
		b.StopTimer()
		b.ReportMetric(float64(r.F.Sched.Processed())/float64(b.N), "events/iter")
		if rec != nil {
			b.ReportMetric(float64(rec.Len())/float64(b.N), "recorded/iter")
		}
	}
	b.Run("off", func(b *testing.B) { bench(b, nil) })
	b.Run("on", func(b *testing.B) { bench(b, obs.NewRecorder(nil)) })
}
