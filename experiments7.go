package mip6mcast

import (
	"fmt"
	"strings"
	"time"

	"mip6mcast/internal/check"
	"mip6mcast/internal/core"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// SCALE — the procedural-topology sweep. Where the paper's experiments all
// run on its fixed six-link Figure 1, this sweep generates whole families
// of topologies (k-ary trees, meshes, Waxman / Barabási–Albert ISP-like
// graphs) via internal/topo, populates them with N mobile nodes and S
// multicast sources, and drives a seeded Poisson handover schedule.  Each
// cell measures what the paper argues qualitatively, at scale: handover
// join delay (streaming quantiles), leave-delay bandwidth waste on
// abandoned links, per-router (S,G) state high-water, flood/prune
// bandwidth, and home-agent tunnel load — then, for the local-membership
// approach, asserts the internal/check convergence invariants once churn
// quiesces.  All measurement is streaming (Welford + seeded reservoir):
// cells with thousands of mobile nodes keep O(1) measurement state per
// entity, never per-datagram logs.

// Scale timeline: settle, churn, quiesce. Moves are generated inside
// [scaleSettle, scaleSettle+horizon); the run extends scaleQuiesce past
// the churn window so prune holdtimes, MLD listener intervals (FastConfig
// tuning) and graft retries all expire before invariants are checked.
const (
	scaleSettle  = 15 * time.Second
	scaleQuiesce = 60 * time.Second
	// CBR shape per source: 2 datagrams/s of 200 B payload.
	scaleCBRInterval = 500 * time.Millisecond
	scaleCBRSize     = 200
)

// scaleCell is one (family, router count, MN count) point of the grid.
type scaleCell struct {
	family  string
	routers int
	mns     int
}

// scaleConfig is the sweep-wide workload shape.
type scaleConfig struct {
	sources    int
	memberFrac float64
	dwell      time.Duration
	horizon    time.Duration
	approach   Approach
	tracedir   string
}

// ScaleOutcome is one (cell, replicate) timeline's raw result.
type ScaleOutcome struct {
	Family  string
	Routers int
	MNs     int
	// Engine is the multicast engine the timeline ran (pimdm, hpimdm).
	Engine string
	// Seed replays the timeline: mip6sim -experiment scale with this seed
	// and -replicates 1 reruns the exact event sequence.
	Seed       int64
	Moves      int
	Violations []string
	// TracePath is the timeline's JSONL trace ("" when tracing is off).
	TracePath string
	// Join delay distribution over every (member, handover) pair plus the
	// initial joins, in seconds.
	JoinP50, JoinP95, JoinMax float64
	JoinN                     int
	// LeaveMean is the mean time data kept flowing to a LAN after its last
	// member left (the leave-delay waste window), seconds.
	LeaveMean float64
	// WasteBytes counts multicast data bytes delivered on LANs that had no
	// member attached at delivery time (flood + leave-delay waste).
	WasteBytes uint64
	// SGHighWater is the 1 s-sampled maximum of live (S,G) entries summed
	// over all routers.
	SGHighWater int
	// ConvTime is the post-churn convergence time: seconds from the end of
	// the churn window until the first 1 s sample at which the cell's
	// invariants hold, capped at the quiesce window.
	ConvTime float64
	// PIMBytes / DataBytes total the control and data traffic classes over
	// every link; HATunneled sums home-agent encapsulations.
	PIMBytes, DataBytes uint64
	HATunneled          uint64
}

// runScaleOne drives one timeline: generate the graph and workload from
// the cell and seed, build the network, attach services and streaming
// probes, replay the move schedule, quiesce, check, report.
func runScaleOne(opt Options, cell scaleCell, cfg scaleConfig) ScaleOutcome {
	g, err := topo.FromSpec(cell.family, cell.routers, opt.Seed)
	if err != nil {
		panic("scale: " + err.Error())
	}
	// When the build will shard, confine churn to partition regions:
	// PartitionGraph is deterministic on (graph, shards, groups), so this
	// is the exact region assignment scenario.Build computes again.
	var linkRegion []int
	if opt.Shards > 1 {
		if part := topo.PartitionGraph(g, opt.Shards, opt.MobilityGroups); part.N > 1 {
			linkRegion = part.LinkRegion(g)
		}
	}
	w, err := topo.GenWorkload(g, topo.WorkloadSpec{
		MNs:        cell.mns,
		Sources:    cfg.sources,
		MemberFrac: cfg.memberFrac,
		MeanDwell:  cfg.dwell,
		Start:      scaleSettle,
		Horizon:    scaleSettle + cfg.horizon,
		// The workload owns its RNG; xor keeps it decoupled from the
		// graph generator, which consumes the raw seed.
		Seed:       opt.Seed ^ 0x5ca1ab1e,
		LinkRegion: linkRegion,
	})
	if err != nil {
		panic("scale: " + err.Error())
	}

	rec := opt.Obs
	if rec == nil && cfg.tracedir != "" {
		rec = obs.NewRecorder(nil)
		opt.Obs = rec
	}
	// Under the proxy approach the generated topology peels its own proxy
	// domains (grids and meshes may peel none and degenerate to flat
	// local membership — an honest outcome the result rows then show).
	opt = approachOptions(opt, cfg.approach)

	var mnHosts, srcHosts []*scenario.Host
	f := scenario.Build(g, opt, func(f *scenario.Network) {
		for i, mn := range w.MNs {
			mnHosts = append(mnHosts,
				f.AddHost(mn.Name, g.Links[mn.Home].Name, 0x9000+uint64(i)+1))
		}
		for s, src := range w.Sources {
			srcHosts = append(srcHosts,
				f.AddHost(src.Name, g.Links[src.Link].Name, 0x5000+uint64(s)+1))
		}
	})

	// Per-MN services; members join the group before time starts.
	svcs := make([]*core.Service, len(w.MNs))
	for i, h := range mnHosts {
		svcs[i] = core.NewService(h.MN, h.MLD, cfg.approach)
	}
	for i, mn := range w.MNs {
		if mn.Member {
			svcs[i].Join(Group)
		}
	}

	// Streaming join-delay probes: a member's move (and time 0) arms a
	// pending timestamp; the first workload datagram delivered afterwards
	// closes it into the reservoir. O(1) state per member, any flow counts.
	joinQ := metrics.NewReservoir(512, opt.Seed^0x7e5e4701)
	pending := make([]sim.Time, len(w.MNs))
	// Delay samples accumulate per region — each slice is appended only by
	// its own region's handlers, so parallel windows share nothing — and
	// feed the reservoir in (region, emission) order after the run. With
	// one region that is the exact streaming Add sequence.
	joinSamples := make([][]float64, len(f.Scheds()))
	for i, h := range mnHosts {
		if !w.MNs[i].Member {
			pending[i] = -1
			continue
		}
		pending[i] = 0
		idx := i
		hsched := h.Node.Sched()
		region := hsched.Region()
		h.Node.BindUDP(scenario.WorkloadPort, func(rx netem.RxPacket, u ipv6.UDP) {
			if _, ok := scenario.ParseBeacon(u.Payload); !ok {
				return
			}
			if at := pending[idx]; at >= 0 {
				joinSamples[region] = append(joinSamples[region],
					time.Duration(hsched.Now()-at).Seconds())
				pending[idx] = -1
			}
		})
	}

	// Ground-truth member census per LAN, fed by the move loop, plus one
	// cheap tap per LAN: data bytes arriving on a memberless LAN are waste,
	// and the last-data timestamp dates each leave-delay episode.
	membersOn := make([]int, len(g.Links))
	lastData := make([]sim.Time, len(g.Links))
	departedAt := make([]sim.Time, len(g.Links))
	curLAN := make([]int, len(w.MNs))
	for i, mn := range w.MNs {
		curLAN[i] = mn.Home
		if mn.Member {
			membersOn[mn.Home]++
		}
	}
	// Waste counts per link: a tap only ever runs in its own link's region,
	// and LANs are never split, so per-link cells are region-private; the
	// census arrays it reads are written only at barriers (the move loop).
	wasteByLink := make([]uint64, len(g.Links))
	var leaveW metrics.Welford
	for li := range g.Links {
		departedAt[li] = -1
		if !g.Links[li].LAN {
			continue
		}
		li := li
		l := f.Links[g.Links[li].Name]
		lsched := l.Sched()
		l.AddTap(func(ev netem.TxEvent) {
			if ev.Pkt.Hdr.Dst != Group {
				return
			}
			lastData[li] = lsched.Now()
			if membersOn[li] == 0 {
				wasteByLink[li] += uint64(len(ev.Frame))
			}
		})
	}
	closeDeparture := func(li int) {
		if departedAt[li] < 0 {
			return
		}
		if d := lastData[li] - departedAt[li]; d > 0 {
			leaveW.Add(time.Duration(d).Seconds())
		} else {
			leaveW.Add(0)
		}
		departedAt[li] = -1
	}

	// One CBR flow per source (sources are stationary, so the send mode is
	// the degenerate at-home case under either approach).
	for s, h := range srcHosts {
		svc := core.NewService(h.MN, h.MLD, cfg.approach)
		// The flow's ticker lives on the source's own region scheduler.
		scenario.NewCBR(h.Node.Sched(), uint16(s+1), scaleCBRInterval, scaleCBRSize,
			func(payload []byte) { svc.Send(Group, payload) })
	}

	// 1 s sampler for the (S,G) state high-water mark across all routers —
	// barrier-driven under shards, where reading every region is safe.
	sgHi := 0
	f.SamplePeriodic(time.Second, func() {
		total := 0
		for _, rn := range f.RouterOrder() {
			total += f.Routers[rn].Engine.EntryCount()
		}
		if total > sgHi {
			sgHi = total
		}
	})

	// Replay the churn schedule: run to each move's instant, apply it, and
	// update the ground-truth census the taps and checks read.
	for _, mv := range w.Moves {
		f.RunUntil(sim.Time(mv.At))
		now := f.Sched.Now()
		from, to := curLAN[mv.MN], mv.To
		if w.MNs[mv.MN].Member {
			membersOn[from]--
			if membersOn[from] == 0 {
				departedAt[from] = now
			}
			if membersOn[to] == 0 {
				closeDeparture(to)
			}
			membersOn[to]++
			pending[mv.MN] = now
		}
		curLAN[mv.MN] = to
		f.Move(w.MNs[mv.MN].Name, g.Links[to].Name)
	}
	churnEnd := sim.Time(scaleSettle + cfg.horizon)
	f.RunUntil(churnEnd)

	members := map[string]bool{}
	for _, mn := range w.MNs {
		if mn.Member {
			members[mn.Name] = true
		}
	}
	// sampleOK is the convergence probe used to time post-churn recovery;
	// it inspects router state read-only between event batches, so the
	// sampled quiesce emits the same trace as an unsampled one. The probe
	// is linear in routers+interfaces, so the sampling interval grows with
	// topology size (1 s up to 32 routers) to keep measurement overhead off
	// the macro benchmarks; conv(s) resolution coarsens accordingly.
	sampleOK := func() bool {
		if cfg.approach.Receive != core.ReceiveHomeTunnel {
			e := check.Expectation{Source: srcHosts[0].MN.HomeAddress, Group: Group, Members: members}
			return len(check.Converged(f, e)) == 0
		}
		return len(check.GraftsResolved(f)) == 0
	}
	step := time.Second * time.Duration(1+cell.routers/32)
	conv := scaleQuiesce.Seconds()
	for t := step; t <= scaleQuiesce; t += step {
		f.RunUntil(churnEnd + sim.Time(t))
		if conv == scaleQuiesce.Seconds() && sampleOK() {
			conv = t.Seconds()
		}
	}
	f.RunUntil(sim.Time(scaleSettle + cfg.horizon + scaleQuiesce))
	for li := range g.Links {
		closeDeparture(li)
	}
	var wasteBytes uint64
	for _, b := range wasteByLink {
		wasteBytes += b
	}
	for _, rs := range joinSamples {
		for _, v := range rs {
			joinQ.Add(v)
		}
	}

	// Convergence invariants. The full Converged contract (link demand ==
	// local MLD membership, proxy-tree consistency included) models local
	// and proxy receiving; under the tunnel approach away members receive
	// via their home agent instead, so only the approach-independent
	// graft liveness is asserted there.
	var vs []check.Violation
	if cfg.approach.Receive != core.ReceiveHomeTunnel {
		for si, h := range srcHosts {
			e := check.Expectation{Source: h.MN.HomeAddress, Group: Group, Members: members}
			if si == 0 {
				vs = append(vs, check.Converged(f, e)...)
			} else {
				vs = append(vs, check.ForwardingSet(f, e)...)
			}
		}
	} else {
		vs = append(vs, check.GraftsResolved(f)...)
	}
	if rec != nil {
		vs = append(vs, check.GraftLiveness(rec.Events(), opt.PIM.GraftRetry, 2*time.Second, f.Sched.Now())...)
	}

	out := ScaleOutcome{
		Family: cell.family, Routers: cell.routers, MNs: cell.mns,
		Engine: opt.EngineName(),
		Seed:   opt.Seed, Moves: len(w.Moves),
		JoinP50: joinQ.Quantile(0.5), JoinP95: joinQ.Quantile(0.95),
		JoinMax: joinQ.Max(), JoinN: joinQ.N(),
		LeaveMean:   leaveW.Mean(),
		WasteBytes:  wasteBytes,
		SGHighWater: sgHi,
		ConvTime:    conv,
	}
	for _, v := range vs {
		out.Violations = append(out.Violations, v.String())
	}
	out.PIMBytes = f.Acct.TotalBytes(metrics.ClassPIM)
	out.DataBytes = f.Acct.TotalBytes(metrics.ClassData)
	for _, rn := range f.RouterOrder() {
		for _, ha := range f.Routers[rn].HomeAgents() {
			out.HATunneled += ha.PacketsTunneled + ha.MulticastTunneled
		}
	}
	if cfg.tracedir != "" && rec != nil {
		name := fmt.Sprintf("%s-r%d-mn%d", cell.family, cell.routers, cell.mns)
		out.TracePath = writeTimelineTrace(cfg.tracedir, "scale", out.Engine, name, name, opt.Seed, rec)
	}
	return out
}

// ParseFamilies splits a '+'-separated topology family list ("tree+grid")
// and validates every entry against the generator registry. The separator
// is '+' because ',' already separates sweep parameters on the CLI.
func ParseFamilies(s string) ([]string, error) {
	out := splitFamilies(s)
	for _, fam := range out {
		if _, err := topo.FromSpec(fam, 1, 1); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("topo: empty family list %q (want e.g. %q)", s, "tree+grid")
	}
	return out, nil
}

// splitFamilies splits a family list at '+', dropping blank entries.
func splitFamilies(s string) []string {
	var out []string
	for _, fam := range strings.Split(s, "+") {
		if fam = strings.TrimSpace(fam); fam != "" {
			out = append(out, fam)
		}
	}
	return out
}

func runExpScale(ctx exp.Context, p exp.Params) exp.Result {
	ctx.Opt = applyEngine(chaosTune(ctx.Opt), p)
	approach := applyApproach(p)
	cfg := scaleConfig{
		sources:    p.Int("sources"),
		memberFrac: p.Float("members"),
		dwell:      secs(p.Int("dwell")),
		horizon:    secs(p.Int("horizon")),
		approach:   approach,
		tracedir:   p.Str("tracedir"),
	}
	if cfg.sources < 1 {
		cfg.sources = 1
	}
	mnsOverride := p.Int("mns")
	mnfrac := p.Float("mnfrac")

	var cells []scaleCell
	var points []string
	for _, fam := range splitFamilies(p.Str("families")) {
		for _, r := range p.Ints("routers") {
			mns := mnsOverride
			if mns <= 0 {
				mns = int(mnfrac*float64(r) + 0.5)
				if mns < 1 {
					mns = 1
				}
			}
			cells = append(cells, scaleCell{family: fam, routers: r, mns: mns})
			// Single-token labels (no spaces): CI's awk smoke reads the
			// violations column by field position.
			points = append(points, fmt.Sprintf("%s-r%d-mn%d", fam, r, mns))
		}
	}
	spec := exp.SweepSpec{
		Points: points,
		Columns: []string{"violations", "conv(s)", "join-p50(s)", "join-p95(s)", "leave(s)",
			"waste(KB)", "sg-hi", "pim(KB)", "data(MB)", "ha-tun"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := runScaleOne(opt, cells[pt], cfg)
			return map[string]float64{
				"violations":  float64(len(res.Violations)),
				"conv(s)":     res.ConvTime,
				"join-p50(s)": res.JoinP50,
				"join-p95(s)": res.JoinP95,
				"leave(s)":    res.LeaveMean,
				"waste(KB)":   float64(res.WasteBytes) / 1024,
				"sg-hi":       float64(res.SGHighWater),
				"pim(KB)":     float64(res.PIMBytes) / 1024,
				"data(MB)":    float64(res.DataBytes) / (1024 * 1024),
				"ha-tun":      float64(res.HATunneled),
			}, res
		},
	}
	return exp.SweepResult("SCALE: procedural topologies under handover churn",
		spec.Columns, exp.Sweep(ctx, spec))
}
