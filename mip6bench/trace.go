package main

import (
	"strings"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// The traced run records per-layer numbers from outside the simulator,
// through public hooks only: per-tag dispatch timing on every region
// scheduler, timing decorators in each node's Forwarder and Routes fields,
// a sampling tap on every link, and timed calls on the finished network.

const (
	// sampleEvery keeps one transmitted frame in this many for the codec
	// replay; maxSamples bounds what one region keeps per cell.
	sampleEvery = 64
	maxSamples  = 4096
	// replayPasses is how often the codec replay runs over the samples.
	replayPasses = 3
	// rpfCalls is roughly how many RPF lookups one cell's timing makes.
	rpfCalls = 20000
)

// Route-lookup kinds: router SPF tables and host default-route tables.
const (
	routerTable = iota
	hostTable
)

// regionAcc accumulates one region's spans. Only that region's events
// touch it (or a scripted move at a kernel barrier, when no region runs),
// so regions share nothing while a window runs in parallel.
type regionAcc struct {
	sched *sim.Scheduler
	// open holds, per span still running, the time its nested spans took;
	// a span's self time is its duration minus that.
	open []time.Duration
	// outerInLink marks the outermost open span as called from a
	// link-delivery event; inLink sums such spans' full durations, so the
	// link tag's self time can exclude them.
	outerInLink bool
	inLink      time.Duration

	fwdCalls uint64
	fwdSelf  time.Duration
	nhCalls  [2]uint64
	nhSelf   [2]time.Duration

	frames  uint64
	samples [][]byte
}

func (a *regionAcc) enter() time.Time {
	if len(a.open) == 0 {
		// PushTag hands back the running event's handler tag.
		tag := a.sched.PushTag("")
		a.sched.PopTag(tag)
		a.outerInLink = tag == "link"
	}
	a.open = append(a.open, 0)
	return time.Now()
}

func (a *regionAcc) exit(start time.Time) (self time.Duration) {
	d := time.Since(start)
	n := len(a.open) - 1
	self = d - a.open[n]
	a.open = a.open[:n]
	if n > 0 {
		a.open[n-1] += d
	} else if a.outerInLink {
		a.inLink += d
	}
	return self
}

func (a *regionAcc) tap(ev netem.TxEvent) {
	a.frames++
	if a.frames%sampleEvery == 0 && len(a.samples) < maxSamples {
		a.samples = append(a.samples, append([]byte(nil), ev.Frame...))
	}
}

// timedForwarder times a router's multicast engine at the data-plane hook.
// Transmissions the engine makes happen inside the call and count as its
// time.
type timedForwarder struct {
	inner netem.MulticastForwarder
	acc   *regionAcc
}

func (t *timedForwarder) ForwardMulticast(rx netem.RxPacket) {
	start := t.acc.enter()
	t.inner.ForwardMulticast(rx)
	t.acc.fwdCalls++
	t.acc.fwdSelf += t.acc.exit(start)
}

// timedRoutes times unicast next-hop lookups.
type timedRoutes struct {
	inner netem.RouteTable
	acc   *regionAcc
	kind  int
}

func (t *timedRoutes) NextHop(dst ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	start := t.acc.enter()
	ifc, via, ok := t.inner.NextHop(dst)
	t.acc.nhCalls[t.kind]++
	t.acc.nhSelf[t.kind] += t.acc.exit(start)
	return ifc, via, ok
}

// tracer instruments one cell's network.
type tracer struct {
	regions []*regionAcc
}

// attach instruments a freshly built network; it is the cell's
// Options.OnNetwork hook.
func (t *tracer) attach(f *scenario.Network) {
	scheds := f.Scheds()
	t.regions = make([]*regionAcc, len(scheds))
	for i, s := range scheds {
		// Options.Instrument would time the root scheduler only. Events
		// dispatched before this call would escape the tag table and show
		// as tag coverage below 1.
		s.Instrument()
		t.regions[i] = &regionAcc{sched: s}
	}
	for _, n := range f.Net.Nodes {
		acc := t.regions[n.Sched().Region()]
		if n.Forwarder != nil {
			n.Forwarder = &timedForwarder{inner: n.Forwarder, acc: acc}
		}
		if n.Routes != nil {
			kind := hostTable
			if n.IsRouter {
				kind = routerTable
			}
			n.Routes = &timedRoutes{inner: n.Routes, acc: acc, kind: kind}
		}
	}
	for _, l := range f.Net.Links {
		l.AddTap(t.regions[l.Sched().Region()].tap)
	}
}

// layers sums per-layer work over a traced run's cells.
type layers struct {
	cells int
	// Paired cells: the untraced and the traced run of one seed.
	plainWall, plainSetup, tracedWall, tracedSetup time.Duration
	plainAlloc                                     uint64

	events, tagEvents uint64
	tags              map[string]sim.TagStat
	handlerWall       time.Duration
	queueHWM          int
	windows           uint64
	workers           int

	frames, deliveries uint64
	fwdCalls           uint64
	fwdSelf            time.Duration
	nhCalls            [2]uint64
	nhSelf             [2]time.Duration
	inLink             time.Duration
	ctrlMsgs           uint64
	haTunneled         uint64

	rpfCalls int
	rpfTime  time.Duration

	genTime, partitionTime, buildTime, recomputeTime time.Duration

	codecFrames, codecBytes, tunneled int
	decodeTime, encodeTime, encapTime time.Duration
}

// addPair folds in one seed's untraced cell p and traced cell c, whose
// network f tracer t instrumented.
func (l *layers) addPair(p, c cell, t *tracer, f *scenario.Network) {
	l.cells++
	l.plainWall += p.wall
	l.plainSetup += p.setup
	l.plainAlloc += p.alloc
	l.tracedWall += c.wall
	l.tracedSetup += c.setup
	if l.tags == nil {
		l.tags = map[string]sim.TagStat{}
	}
	var rs sim.RunStats
	for _, s := range f.Scheds() {
		rs = exp.MergeRunStats(rs, s.RunStats())
	}
	l.events += rs.Dispatched
	l.handlerWall += rs.Wall
	l.queueHWM = max(l.queueHWM, rs.QueueHighWater)
	for _, ts := range rs.Tags {
		l.tagEvents += ts.Events
		sum := l.tags[ts.Tag]
		sum.Events += ts.Events
		sum.Wall += ts.Wall
		l.tags[ts.Tag] = sum
	}
	l.workers = 1
	if f.Kern != nil {
		l.windows += f.Kern.Windows()
		l.workers = shardWorkers
	}
	for _, ln := range f.Net.Links {
		l.frames += ln.TxFrames
		l.deliveries += ln.Delivered
	}
	for _, a := range t.regions {
		l.fwdCalls += a.fwdCalls
		l.fwdSelf += a.fwdSelf
		for k := range a.nhCalls {
			l.nhCalls[k] += a.nhCalls[k]
			l.nhSelf[k] += a.nhSelf[k]
		}
		l.inLink += a.inLink
		l.replay(a.samples)
	}
	l.ctrlMsgs += f.MulticastStats().ControlMessages()
	for _, rn := range f.RouterOrder() {
		for _, ha := range f.Routers[rn].HomeAgents() {
			l.haTunneled += ha.PacketsTunneled + ha.MulticastTunneled
		}
	}
	l.timeRPF(f)
}

// replay decodes, re-encodes and tunnel-encapsulates sampled frames to
// time the wire codec and the tunnel entry.
func (l *layers) replay(frames [][]byte) {
	pkts := make([]*ipv6.Packet, len(frames))
	var buf []byte
	for pass := 0; pass < replayPasses; pass++ {
		start := time.Now()
		for i, fr := range frames {
			pkts[i], _ = ipv6.Decode(fr)
		}
		l.decodeTime += time.Since(start)
		start = time.Now()
		for _, p := range pkts {
			if p != nil {
				buf, _ = p.EncodeAppend(buf[:0])
			}
		}
		l.encodeTime += time.Since(start)
		// A home agent's tunnel entry: wrap the packet in an outer header.
		start = time.Now()
		for _, p := range pkts {
			if p != nil {
				ipv6.Encapsulate(p.Hdr.Src, p.Hdr.Dst, ipv6.DefaultHopLimit, p)
			}
		}
		l.encapTime += time.Since(start)
	}
	l.codecFrames += len(frames)
	for i, fr := range frames {
		l.codecBytes += len(fr)
		if pkts[i] != nil && pkts[i].Proto == ipv6.ProtoIPv6 {
			l.tunneled++
		}
	}
}

// timeRPF times the RPF lookup of every router's unicast table toward
// every multicast source of the finished network.
func (l *layers) timeRPF(f *scenario.Network) {
	var srcs []ipv6.Addr
	for name, h := range f.Hosts {
		// Figure 1's sender is S; the scale workload names its sources src<i>.
		if name == "S" || strings.HasPrefix(name, "src") {
			srcs = append(srcs, h.MN.HomeAddress)
		}
	}
	var tables []*routing.RouterTable
	for _, rn := range f.RouterOrder() {
		if t := f.Dom.TableOf(f.Routers[rn].Node); t != nil {
			tables = append(tables, t)
		}
	}
	per := len(tables) * len(srcs)
	if per == 0 {
		return
	}
	reps := max(1, rpfCalls/per)
	start := time.Now()
	for k := 0; k < reps; k++ {
		for _, t := range tables {
			for _, s := range srcs {
				t.RPFInterface(s)
			}
		}
	}
	l.rpfTime += time.Since(start)
	l.rpfCalls += reps * per
}

// timeSetup times the set-up layers on their own, after the cell: graph
// generation, partitioning, the router network build and its unicast SPF.
// The build has no hosts; the cell's own build adds them.
func (l *layers) timeSetup(w *workload, seed int64, opt scenario.Options) error {
	start := time.Now()
	g, err := w.graph(seed)
	l.genTime += time.Since(start)
	if err != nil {
		return err
	}
	// Unsharded builds skip the partitioner; timing it at one region still
	// prices it on the cell's graph.
	start = time.Now()
	topo.PartitionGraph(g, opt.Shards, opt.MobilityGroups)
	l.partitionTime += time.Since(start)
	opt.OnNetwork = nil
	start = time.Now()
	b := scenario.Build(g, opt)
	l.buildTime += time.Since(start)
	start = time.Now()
	b.Dom.Recompute()
	l.recomputeTime += time.Since(start)
	return nil
}

func (l *layers) tag(names ...string) (events uint64, wall time.Duration) {
	for _, n := range names {
		events += l.tags[n].Events
		wall += l.tags[n].Wall
	}
	return events, wall
}

// metrics reduces the sums to the per_layer metrics: counts per cell,
// times per call or per event, and shares of handler wall time.
func (l *layers) metrics() map[string]float64 {
	cells := float64(max(1, l.cells))
	ev := float64(l.events)
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	per := func(d time.Duration, n uint64) float64 { return ratio(ns(d), float64(n)) }
	linkEv, linkWall := l.tag("link")
	ctrlEv, ctrlWall := l.tag("pim", "hpim")
	mldEv, mldWall := l.tag("mld")
	mipEv, mipWall := l.tag("mip")
	running := l.tracedWall - l.tracedSetup
	workerTime := ns(running) * float64(l.workers)
	return map[string]float64{
		"ipv6.decode_ns":               ratio(ns(l.decodeTime), replayPasses*float64(l.codecFrames)),
		"ipv6.encode_ns":               ratio(ns(l.encodeTime), replayPasses*float64(l.codecFrames)),
		"ipv6.frame_bytes":             ratio(float64(l.codecBytes), float64(l.codecFrames)),
		"ipv6.tunneled_share":          ratio(float64(l.tunneled), float64(l.codecFrames)),
		"sim.events":                   ev / cells,
		"sim.ns_per_event":             ratio(ns(l.plainWall-l.plainSetup), ev),
		"sim.bytes_per_event":          ratio(float64(l.plainAlloc), ev),
		"sim.dispatch_ns_per_event":    ratio(workerTime-ns(l.handlerWall), ev),
		"sim.queue_hwm":                float64(l.queueHWM),
		"sim.tag_coverage":             ratio(float64(l.tagEvents), ev),
		"sim.kernel_windows":           float64(l.windows) / cells,
		"sim.parallel_efficiency":      ratio(ns(l.handlerWall), workerTime),
		"netem.frames":                 float64(l.frames) / cells,
		"netem.deliveries_per_frame":   ratio(float64(l.deliveries), float64(l.frames)),
		"netem.link_ns_per_event":      per(linkWall, linkEv),
		"netem.link_self_ns_per_event": per(linkWall-l.inLink, linkEv),
		"netem.link_wall_share":        ratio(ns(linkWall), ns(l.handlerWall)),
		"routing.nexthop_calls":        float64(l.nhCalls[routerTable]+l.nhCalls[hostTable]) / cells,
		"routing.nexthop_ns.router":    per(l.nhSelf[routerTable], l.nhCalls[routerTable]),
		"routing.nexthop_ns.host":      per(l.nhSelf[hostTable], l.nhCalls[hostTable]),
		"routing.rpf_ns":               per(l.rpfTime, uint64(l.rpfCalls)),
		"engine.forward_calls":         float64(l.fwdCalls) / cells,
		"engine.forward_ns":            per(l.fwdSelf, l.fwdCalls),
		"routing.recompute_s":          l.recomputeTime.Seconds() / cells,
		"topo.gen_s":                   l.genTime.Seconds() / cells,
		"topo.partition_s":             l.partitionTime.Seconds() / cells,
		"scenario.build_s":             l.buildTime.Seconds() / cells,
		"engine.ctrl_events":           float64(ctrlEv) / cells,
		"engine.ctrl_ns_per_event":     per(ctrlWall, ctrlEv),
		"engine.ctrl_msgs":             float64(l.ctrlMsgs) / cells,
		"mld.events":                   float64(mldEv) / cells,
		"mld.ns_per_event":             per(mldWall, mldEv),
		"mipv6.events":                 float64(mipEv) / cells,
		"mipv6.encap_ns":               ratio(ns(l.encapTime), replayPasses*float64(l.codecFrames)),
		"mipv6.tunneled":               float64(l.haTunneled) / cells,
		"other.wall_share":             ratio(ns(l.handlerWall-linkWall-ctrlWall-mldWall-mipWall), ns(l.handlerWall)),
		"trace.overhead":               ratio(ns(l.tracedWall), ns(l.plainWall)) - 1,
	}
}

// modelMetrics summarizes the simulated outputs of a run's model cells.
// On Figure 1 each cell measures one handover, so the median and the
// maximum over the cycle are its join-delay p50 and nearest-rank p95.
func modelMetrics(cells []outcome) map[string]float64 {
	var p50s []float64
	m := map[string]float64{"model.join_p95_ms": 0, "model.sg_high_water": 0, "model.violations": 0}
	var ctrl, data float64
	for _, o := range cells {
		p50s = append(p50s, o.joinP50)
		m["model.join_p95_ms"] = max(m["model.join_p95_ms"], o.joinP95)
		m["model.sg_high_water"] = max(m["model.sg_high_water"], float64(o.sgHighWater))
		m["model.violations"] += float64(len(o.violations))
		ctrl += float64(o.ctrlBytes)
		data += float64(o.dataBytes)
	}
	n := float64(max(1, len(cells)))
	m["model.join_p50_ms"] = median(p50s)
	m["model.ctrl_kb"] = ctrl / 1e3 / n
	m["model.data_mb"] = data / 1e6 / n
	return m
}

// trafficBytes splits a finished network's accounted bytes into control
// (MLD, PIM and Mobile IPv6 signaling) and multicast data.
func trafficBytes(f *scenario.Network) (ctrl, data uint64) {
	a := f.Acct
	ctrl = a.TotalBytes(metrics.ClassMLD) + a.TotalBytes(metrics.ClassPIM) + a.TotalBytes(metrics.ClassMIPv6)
	return ctrl, a.TotalBytes(metrics.ClassData)
}
