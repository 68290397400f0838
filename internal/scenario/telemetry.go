package scenario

import (
	"time"

	"mip6mcast/internal/metrics"
)

// attachTelemetry registers the standard sampler set on opt.Telemetry and
// samples it at f's kernel barriers. Metric registration order — and with
// it the exported column order — is a pure function of the topology
// (construction order of links and routers), so the series layout is
// deterministic for a fixed graph.
//
// The samplers are read-only probes over live structures; none of them
// capture engine or home-agent pointers, because CrashRouter/RestartRouter
// replace those mid-run — everything is re-read through f.Routers each
// tick.
func attachTelemetry(f *Network) {
	reg := f.Opt.Telemetry
	every := f.Opt.TelemetryEvery
	if every <= 0 {
		every = time.Second
	}

	// Scheduler health: queue depth (sampled + bucketed for a depth
	// distribution), cumulative dispatch count, and the per-tick dispatch
	// delta (events per sampling period). Samples run at kernel barriers
	// (all region clocks equal — a consistent cut, holding every event
	// before the sample time and none at it) and aggregate across region
	// schedulers: sums for depth/dispatch, max for the high-water mark.
	// The sampler is no scheduler event, so it never counts itself.
	scheds := f.Scheds()
	qhist := reg.Histogram("sim/queue_depth_dist", []float64{4, 16, 64, 256, 1024, 4096})
	reg.Gauge("sim/queue_depth", func() float64 {
		var d float64
		for _, s := range scheds {
			d += float64(s.Pending())
		}
		qhist.Observe(d)
		return d
	})
	reg.Gauge("sim/queue_high_water", func() float64 {
		var hw float64
		for _, s := range scheds {
			if v := float64(s.QueueHighWater()); v > hw {
				hw = v
			}
		}
		return hw
	})
	dispatched := func() uint64 {
		var n uint64
		for _, s := range scheds {
			n += s.Processed()
		}
		return n
	}
	reg.Gauge("sim/dispatched_total", func() float64 { return float64(dispatched()) })
	var lastDispatched uint64
	reg.Gauge("sim/events_per_tick", func() float64 {
		n := dispatched()
		d := n - lastDispatched
		lastDispatched = n
		return float64(d)
	})

	// Per-link wire accounting: control vs data bytes from the accountant's
	// class split, impairment drops from the link's own delivery counters.
	for _, ln := range f.linkOrder {
		ln := ln
		l := f.Links[ln]
		lc := f.Acct.Of(l)
		// A split cross-region link counts each direction on its own half;
		// the series reports the whole link, so fold the peer half in.
		var pc *metrics.LinkCounters
		peer := l.Peer()
		if peer != nil {
			pc = f.Acct.Of(peer)
		}
		reg.Gauge("link "+ln+"/ctrl_bytes", func() float64 {
			n := lc.Bytes[metrics.ClassPIM] + lc.Bytes[metrics.ClassMLD] +
				lc.Bytes[metrics.ClassNDP] + lc.Bytes[metrics.ClassMIPv6]
			if pc != nil {
				n += pc.Bytes[metrics.ClassPIM] + pc.Bytes[metrics.ClassMLD] +
					pc.Bytes[metrics.ClassNDP] + pc.Bytes[metrics.ClassMIPv6]
			}
			return float64(n)
		})
		reg.Gauge("link "+ln+"/data_bytes", func() float64 {
			n := lc.Bytes[metrics.ClassData] + lc.Bytes[metrics.ClassTunnel]
			if pc != nil {
				n += pc.Bytes[metrics.ClassData] + pc.Bytes[metrics.ClassTunnel]
			}
			return float64(n)
		})
		reg.Gauge("link "+ln+"/drops", func() float64 {
			n := l.LostDeliveries + l.CorruptedDeliveries + l.DownDrops
			if peer != nil {
				n += peer.LostDeliveries + peer.CorruptedDeliveries + peer.DownDrops
			}
			return float64(n)
		})
	}

	// Per-router (S,G) table size, plus engine-wide aggregates sampled once
	// per tick from one MulticastStats walk. The (S,G) high-water gauge
	// tracks the largest total ever sampled (the paper's per-router state
	// concern, Helmy's aggregation metric).
	for _, rn := range f.routerOrder {
		rn := rn
		reg.Gauge("router "+rn+"/sg_entries", func() float64 {
			return float64(f.Routers[rn].Engine.EntryCount())
		})
	}
	gSG := reg.Gauge("engine/sg_total", nil)
	gSGHW := reg.Gauge("engine/sg_high_water", nil)
	gGraft := reg.Gauge("engine/grafts_total", nil)
	gPrune := reg.Gauge("engine/prunes_total", nil)
	gCtrl := reg.Gauge("engine/ctrl_msgs_total", nil)
	gBind := reg.Gauge("mipv6/bindings", nil)
	gTun := reg.Gauge("mipv6/tunneled_total", nil)
	var sgHW float64
	reg.OnSample(func() {
		var sg float64
		for _, rn := range f.routerOrder {
			sg += float64(f.Routers[rn].Engine.EntryCount())
		}
		if sg > sgHW {
			sgHW = sg
		}
		gSG.Set(sg)
		gSGHW.Set(sgHW)
		st := f.MulticastStats()
		gGraft.Set(float64(st.GraftsSent))
		gPrune.Set(float64(st.PrunesSent))
		gCtrl.Set(float64(st.ControlMessages()))

		var bind, tun float64
		for _, rn := range f.routerOrder {
			for _, ha := range f.Routers[rn].HomeAgents() {
				bind += float64(ha.BindingCount())
				tun += float64(ha.PacketsTunneled + ha.MulticastTunneled)
			}
		}
		gBind.Set(bind)
		gTun.Set(tun)
	})

	// Proxy-hierarchy series, only when a plan is active (keeps the series
	// layout — and golden traces — of proxy-disabled builds unchanged).
	if !f.Proxy.Empty() {
		reg.Gauge("proxy/tree_depth", func() float64 {
			return float64(f.Proxy.MaxDepth)
		})
		gPAgg := reg.Gauge("proxy/aggregated_entries", nil)
		gPAggHW := reg.Gauge("proxy/aggregated_high_water", nil)
		gPLocal := reg.Gauge("proxy/anchor_local_handovers", nil)
		gPHome := reg.Gauge("proxy/home_routed_handovers", nil)
		reg.OnSample(func() {
			var agg, aggHW float64
			for _, rn := range f.routerOrder {
				if px := f.ProxyOf(rn); px != nil {
					agg += float64(px.EntryCount())
					aggHW += float64(px.AggregatedHighWater())
				}
			}
			gPAgg.Set(agg)
			gPAggHW.Set(aggHW)
			local, home := f.HandoverCounts()
			gPLocal.Set(float64(local))
			gPHome.Set(float64(home))
		})
	}

	if f.obs != nil {
		reg.Mirror(f.obs, "telemetry")
	}
	// The root scheduler stamps row times.
	reg.Start(f.Sched, every)
	f.SamplePeriodic(every, reg.Sample)
}
