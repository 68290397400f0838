package mip6mcast

import (
	"fmt"
	"strings"

	"mip6mcast/internal/core"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/scenario"
)

// This file registers every paper artifact as an internal/exp experiment.
// The registration order is the canonical "run all" order. RunExperiment
// is the only way to run one: tables come from Result.Render, replicate
// statistics from Result.Stats, and typed results from Result.Artifact
// (non-sweep experiments) or Stats[i].Raw (sweep points).

func init() {
	exp.Register(&exp.Experiment{
		Name: "f1",
		Desc: "Figure 1: initial distribution tree (flood-and-prune convergence)",
		Run:  runExpF1,
	})
	exp.Register(&exp.Experiment{
		Name: "f2",
		Desc: "Figure 2: mobile receiver with local membership (join/leave delays)",
		Run:  runExpF2,
	})
	exp.Register(&exp.Experiment{
		Name: "f3",
		Desc: "Figure 3: mobile receiver via home-agent tunnel (both §4.3.2 variants)",
		Run:  runExpF3,
	})
	exp.Register(&exp.Experiment{
		Name: "f4",
		Desc: "Figure 4: mobile sender, reverse tunnel vs local sending",
		Run:  runExpF4,
	})
	exp.Register(&exp.Experiment{
		Name: "t1",
		Desc: "Table 1 / §4.3: every registered approach under the movement scenario",
		Run:  runExpT1,
	})
	exp.Register(&exp.Experiment{
		Name:  "s44",
		Desc:  "§4.4: MLD Query Interval sweep (delay vs signaling tradeoff)",
		Sweep: true,
		Params: []exp.Param{
			{Name: "tquery", Desc: "MLD query intervals to sweep (s)", Kind: exp.IntList,
				Default: []int{5, 10, 20, 30, 60, 125}},
			{Name: "unsolicited", Desc: "mobile receivers re-report after moving", Kind: exp.Bool,
				Default: true},
		},
		Run: runExpS44,
	})
	exp.Register(&exp.Experiment{
		Name:  "s431",
		Desc:  "§4.3.1: mobile-sender flood/assert overhead vs movement count",
		Sweep: true,
		Params: []exp.Param{
			{Name: "moves", Desc: "sender movement counts to sweep", Kind: exp.IntList,
				Default: []int{1, 2, 4, 8}},
			{Name: "dwell", Desc: "dwell time per foreign link (s)", Kind: exp.Int, Default: 45},
		},
		Run: runExpS431,
	})
	exp.Register(&exp.Experiment{
		Name:  "s432",
		Desc:  "§4.3.2: tunnel convergence, N co-located receivers on one foreign link",
		Sweep: true,
		Params: []exp.Param{
			{Name: "n", Desc: "co-located mobile receiver counts", Kind: exp.IntList,
				Default: []int{1, 2, 4, 8}},
		},
		Run: runExpS432,
	})
	exp.Register(&exp.Experiment{
		Name:  "smg",
		Desc:  "extension: multi-group scaling of the Group List mechanism",
		Sweep: true,
		Params: []exp.Param{
			{Name: "groups", Desc: "group subscription counts", Kind: exp.IntList,
				Default: []int{1, 4, 15, 16, 40}},
			paramApproach("uni-tunnel-ha-to-mn"),
			paramTQuery(),
		},
		Run: runExpSMG,
	})
	exp.Register(&exp.Experiment{
		Name:  "sld",
		Desc:  "extension: receive modes vs roaming depth (line topology)",
		Sweep: true,
		Params: []exp.Param{
			{Name: "depths", Desc: "roaming depths (router hops from home)", Kind: exp.IntList,
				Default: []int{1, 2, 4, 8}},
			paramTQuery(),
		},
		Run: runExpSLD,
	})
	exp.Register(&exp.Experiment{
		Name:  "smtu",
		Desc:  "extension: tunnel MTU boundary (fragmentation and loss amplification)",
		Sweep: true,
		Params: []exp.Param{
			{Name: "payloads", Desc: "datagram payload sizes (B)", Kind: exp.IntList,
				Default: []int{1200, 1400, 1412, 1413, 1432}},
			{Name: "losses", Desc: "per-link loss rates to sweep", Kind: exp.FloatList,
				Default: []float64{0, 0.05}},
			paramTQuery(),
		},
		Run: runExpSMTU,
	})
	exp.Register(&exp.Experiment{
		Name:  "chaos",
		Desc:  "chaos: fault-injection matrix with convergence invariant checks",
		Sweep: true,
		Params: []exp.Param{
			paramApproach("local-membership"),
			paramEngine(),
			{Name: "tracedir", Desc: "write each timeline's JSONL trace under this directory for seed replay; empty disables",
				Kind: exp.String, Default: ""},
		},
		Run: runExpChaos,
	})
	exp.Register(&exp.Experiment{
		Name:  "scale",
		Desc:  "scale: procedural topologies (internal/topo) under handover churn",
		Sweep: true,
		Params: []exp.Param{
			{Name: "families", Desc: "'+'-separated topology families (tree, grid, waxman, ba, fig1)",
				Kind: exp.String, Default: "tree+grid+waxman"},
			{Name: "routers", Desc: "router counts to sweep per family", Kind: exp.IntList,
				Default: []int{4, 16}},
			{Name: "mnfrac", Desc: "mobile nodes per router (when mns is 0)", Kind: exp.Float,
				Default: 2.0},
			{Name: "mns", Desc: "explicit mobile-node count; 0 derives from mnfrac", Kind: exp.Int,
				Default: 0},
			{Name: "sources", Desc: "multicast source count", Kind: exp.Int, Default: 2},
			{Name: "members", Desc: "fraction of mobile nodes subscribed to the group", Kind: exp.Float,
				Default: 0.5},
			{Name: "dwell", Desc: "mean dwell time between handovers (s)", Kind: exp.Int, Default: 20},
			{Name: "horizon", Desc: "churn window length (s)", Kind: exp.Int, Default: 60},
			paramApproach("local-membership"),
			paramEngine(),
			{Name: "tracedir", Desc: "write each timeline's JSONL trace under this directory for seed replay; empty disables",
				Kind: exp.String, Default: ""},
		},
		Run: runExpScale,
	})
}

// paramEngine is the multicast-engine selector shared by the comparison
// sweeps. The default keeps every existing golden trace byte-identical.
func paramEngine() exp.Param {
	return exp.Param{
		Name: "engine", Desc: "multicast engine: " + strings.Join(scenario.EngineNames(), " or "),
		Kind: exp.String, Default: "pimdm",
	}
}

// paramApproach is the receive-approach selector shared by the sweeps
// that can run any registered approach. The description lists the
// registry's canonical names, so `mip6sim -list` always shows what a
// build actually accepts.
func paramApproach(def string) exp.Param {
	return exp.Param{
		Name: "approach", Desc: "approach: " + strings.Join(ApproachNames(), ", ") + " (or alias " + strings.Join(core.ApproachAliases(), "/") + ")",
		Kind: exp.String, Default: def,
	}
}

// applyApproach resolves the approach parameter against the core
// registry; unknown names panic with the registered set.
func applyApproach(p exp.Params) Approach {
	name := p.Str("approach")
	a, ok := ApproachByName(name)
	if !ok {
		panic(fmt.Sprintf("unknown approach %q (registered: %v)", name, ApproachNames()))
	}
	return a
}

// applyEngine validates the engine parameter against the scenario
// registry and selects it in the build options.
func applyEngine(opt Options, p exp.Params) Options {
	name := p.Str("engine")
	found := false
	for _, n := range scenario.EngineNames() {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("unknown multicast engine %q (registered: %v)", name, scenario.EngineNames()))
	}
	opt.Engine = name
	return opt
}

// paramTQuery is the shared MLD-tuning knob of the extension studies,
// which need fast timers to finish in a bounded horizon. 0 inherits the
// base options untouched.
func paramTQuery() exp.Param {
	return exp.Param{
		Name: "tquery", Desc: "MLD query interval override (s); 0 inherits base options",
		Kind: exp.Int, Default: 30,
	}
}

// applyTQuery retunes MLD when the tquery parameter asks for it.
func applyTQuery(opt Options, p exp.Params) Options {
	if tq := p.Int("tquery"); tq > 0 {
		opt.MLD = mld.FastConfig(secs(tq))
	}
	return opt
}

func runExpF1(ctx exp.Context, p exp.Params) exp.Result {
	// Column 0 is the paper's flat build; column 1 rebuilds the same tree
	// with the edge routers peeled into MLD-proxy domains (approach #5) —
	// same delivery, aggregated state instead of per-proxy PIM state.
	approaches := []Approach{LocalMembership, ProxyHierarchy}
	cols := []string{"flat", "proxy"}
	var out [2]F1Result
	exp.ForEach(ctx, len(approaches), func(opt scenario.Options, i int) {
		out[i] = measureF1(opt, approaches[i])
	})
	val := func(get func(F1Result) float64) map[string]float64 {
		return map[string]float64{"flat": get(out[0]), "proxy": get(out[1])}
	}
	rows := []metrics.Row{
		{Label: "sent", Values: val(func(r F1Result) float64 { return float64(r.Sent) })},
	}
	for _, name := range []string{"R1", "R2", "R3"} {
		name := name
		rows = append(rows, metrics.Row{
			Label:  "delivered@" + name,
			Values: val(func(r F1Result) float64 { return float64(r.Delivered[name]) }),
		})
	}
	for _, l := range scenario.LinkNames() {
		l := l
		rows = append(rows, metrics.Row{
			Label:  "data@" + l + "(B)",
			Values: val(func(r F1Result) float64 { return float64(r.DataBytesPerLink[l]) }),
		})
	}
	rows = append(rows,
		metrics.Row{Label: "flood-frames@L5", Values: val(func(r F1Result) float64 { return float64(r.FloodFramesL5) })},
		metrics.Row{Label: "frames@L6", Values: val(func(r F1Result) float64 { return float64(r.FramesL6) })},
		metrics.Row{Label: "sg-entries@D", Values: val(func(r F1Result) float64 { return float64(len(r.TreeAtD)) })},
	)
	return exp.Result{
		Title:    "F1: initial distribution tree (paper Figure 1; flat vs proxy build)",
		Columns:  cols,
		Rows:     rows,
		Artifact: out,
	}
}

func runExpF2(ctx exp.Context, p exp.Params) exp.Result {
	// Rows 0/1 are the paper's report-policy contrast under local
	// membership; row 2 repeats the unsolicited-report move under the
	// proxy hierarchy, where L4→L6 is an anchor-local handover.
	var out [3]F2Result
	exp.ForEach(ctx, 3, func(opt scenario.Options, i int) {
		approach := LocalMembership
		if i == 2 {
			approach = ProxyHierarchy
		}
		out[i] = measureF2(opt, i != 1, approach)
	})
	labels := []string{"unsolicited-reports", "wait-for-query", "proxy-hierarchy"}
	cols := []string{"join(s)", "leave(s)", "waste(B)", "delivered-after"}
	rows := make([]metrics.Row, 0, len(out))
	for i, res := range out {
		rows = append(rows, metrics.Row{
			Label: labels[i],
			Values: map[string]float64{
				"join(s)":         res.JoinDelay.Seconds(),
				"leave(s)":        res.LeaveDelay.Seconds(),
				"waste(B)":        float64(res.WastedBytes),
				"delivered-after": float64(res.DeliveredAfterMove),
			},
		})
	}
	return exp.Result{
		Title:    "F2: mobile receiver, local membership (paper Figure 2)",
		Columns:  cols,
		Rows:     rows,
		Artifact: out,
	}
}

func runExpF3(ctx exp.Context, p exp.Params) exp.Result {
	// Rows 0/1 are the paper's §4.3.2 signaling variants. The third row
	// contrasts both with the proxy hierarchy: R3's move lands below proxy
	// A (domain B), so it rejoins locally through the proxy tree — no
	// tunnel, near-optimal hops.
	groupList, tunneledMLD := UniTunnelHAToMN, UniTunnelHAToMN
	groupList.Variant = VariantGroupListBU
	tunneledMLD.Variant = VariantTunneledMLD
	approaches := []Approach{groupList, tunneledMLD, ProxyHierarchy}
	labels := []string{"group-list-BU", "tunneled-MLD", "proxy-hierarchy"}
	var out [3]F3Result
	exp.ForEach(ctx, len(out), func(opt scenario.Options, i int) {
		out[i] = measureF3(opt, approaches[i])
	})
	cols := []string{"join(s)", "hops", "optimal", "tun-ovh(B)", "ha-tunneled"}
	rows := make([]metrics.Row, 0, len(out))
	for i, res := range out {
		rows = append(rows, metrics.Row{
			Label: labels[i],
			Values: map[string]float64{
				"join(s)":     res.JoinDelay.Seconds(),
				"hops":        res.MeanHops,
				"optimal":     float64(res.OptimalHops),
				"tun-ovh(B)":  float64(res.TunnelOverheadBytes),
				"ha-tunneled": float64(res.HATunneled),
			},
		})
	}
	return exp.Result{
		Title:    "F3: mobile receiver via home-agent tunnel (paper Figure 3)",
		Columns:  cols,
		Rows:     rows,
		Artifact: out,
	}
}

func runExpF4(ctx exp.Context, p exp.Params) exp.Result {
	// Rows 0/1 are the paper's send-mode contrast; row 2 moves the sender
	// under the proxy hierarchy, where L6 sits below proxy E and the new
	// source is up-forwarded into anchor D's existing domain.
	approaches := []Approach{UniTunnelMNToHA, LocalMembership, ProxyHierarchy}
	var out [3]F4Result
	exp.ForEach(ctx, len(out), func(opt scenario.Options, i int) {
		out[i] = measureF4(opt, approaches[i])
	})
	labels := []string{"reverse-tunnel", "local-send", "proxy-hierarchy"}
	cols := []string{"gap(s)", "newtrees", "peakSG", "asserts", "tun(B)", "recv-R1", "recv-R2", "recv-R3"}
	rows := make([]metrics.Row, 0, len(out))
	for i, res := range out {
		vals := map[string]float64{
			"gap(s)":   res.MaxGapAfterMove.Seconds(),
			"newtrees": float64(res.NewTreesBuilt),
			"peakSG":   float64(res.PeakSGEntries),
			"asserts":  float64(res.AssertsSent),
			"tun(B)":   float64(res.TunnelOverheadBytes),
		}
		for _, name := range []string{"R1", "R2", "R3"} {
			vals["recv-"+name] = float64(res.DeliveredAfterMove[name])
		}
		rows = append(rows, metrics.Row{Label: labels[i], Values: vals})
	}
	return exp.Result{
		Title:    "F4: mobile sender (paper Figure 4 vs local sending)",
		Columns:  cols,
		Rows:     rows,
		Artifact: out,
	}
}

func runExpT1(ctx exp.Context, p exp.Params) exp.Result {
	// Every approach rides the identical movement scenario: the paper's
	// four plus the proxy hierarchy.
	approaches := Approaches()
	out := make([]T1Row, len(approaches))
	exp.ForEach(ctx, len(approaches), func(opt scenario.Options, i int) {
		out[i] = runT1One(opt, approaches[i])
	})
	rows := make([]metrics.Row, 0, len(out))
	for _, r := range out {
		rows = append(rows, metrics.Row{
			Label: r.Approach.String(),
			Values: map[string]float64{
				"join(s)":   r.JoinDelayR3.Seconds(),
				"sndgap(s)": r.SenderGap.Seconds(),
				"data(kB)":  float64(r.DataBytes) / 1000,
				"tun(kB)":   float64(r.TunnelBytes) / 1000,
				"ctrl(kB)":  float64(r.ControlBytes) / 1000,
				"haload":    float64(r.HALoad),
				"peakSG":    float64(r.PeakSG),
				"hopsR3":    r.MeanHopsR3,
				"optR3":     float64(r.OptimalHopsR3),
				"lossR3":    float64(r.LossR3),
			},
		})
	}
	return exp.Result{
		Title:    "T1: registered approaches, Fig.1 movement scenario",
		Columns:  []string{"join(s)", "sndgap(s)", "data(kB)", "tun(kB)", "ctrl(kB)", "haload", "peakSG", "hopsR3", "optR3", "lossR3"},
		Rows:     rows,
		Artifact: out,
	}
}

func runExpS44(ctx exp.Context, p exp.Params) exp.Result {
	qs := p.Ints("tquery")
	unsolicited := p.Bool("unsolicited")
	points := make([]string, len(qs))
	for i, q := range qs {
		points[i] = fmt.Sprintf("T_Query=%3ds unsol=%v", q, unsolicited)
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"join(s)", "leave(s)", "waste(B)", "mld(B/h)"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			opt.MLD = mld.FastConfig(secs(qs[pt]))
			opt.ResendOnMove = unsolicited
			join, leave, waste, mldPerHour := measureS44One(opt)
			return map[string]float64{
				"join(s)":  join.Seconds(),
				"leave(s)": leave.Seconds(),
				"waste(B)": float64(waste),
				"mld(B/h)": mldPerHour,
			}, nil
		},
	}
	return exp.SweepResult("S44: MLD timer optimization (paper §4.4)", spec.Columns, exp.Sweep(ctx, spec))
}

func runExpS431(ctx exp.Context, p exp.Params) exp.Result {
	moves := p.Ints("moves")
	dwell := secs(p.Int("dwell"))
	points := make([]string, len(moves))
	for i, m := range moves {
		points[i] = fmt.Sprintf("moves=%d", m)
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"reflood(B)", "asserts", "peakSG", "newtrees"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := measureS431(opt, moves[pt], dwell)
			return map[string]float64{
				"reflood(B)": float64(res.RefloodBytes),
				"asserts":    float64(res.Asserts),
				"peakSG":     float64(res.PeakSG),
				"newtrees":   float64(res.NewTrees),
			}, res
		},
	}
	return exp.SweepResult("S431: mobile-sender flood/assert overhead (paper §4.3.1)",
		spec.Columns, exp.Sweep(ctx, spec))
}

func runExpS432(ctx exp.Context, p exp.Params) exp.Result {
	ns := p.Ints("n")
	points := make([]string, len(ns))
	for i, n := range ns {
		points[i] = fmt.Sprintf("N=%d", n)
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"local(B/dgram)", "tunnel(B/dgram)"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := measureS432Point(opt, ns[pt])
			return map[string]float64{
				"local(B/dgram)":  res.LocalBytesPerDgram,
				"tunnel(B/dgram)": res.TunnelBytesPerDgram,
			}, res
		},
	}
	return exp.SweepResult("S432: foreign-link bytes per datagram (paper §4.3.2)",
		spec.Columns, exp.Sweep(ctx, spec))
}

func runExpSMG(ctx exp.Context, p exp.Params) exp.Result {
	ctx.Opt = applyTQuery(ctx.Opt, p)
	approach := applyApproach(p)
	counts := p.Ints("groups")
	points := make([]string, len(counts))
	for i, g := range counts {
		points[i] = fmt.Sprintf("groups=%d", g)
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"bu(B)", "subopts", "ha(dgm/s)", "join-p50(s)", "join-max(s)", "delivered"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := runSMGOne(opt, counts[pt], approach)
			return map[string]float64{
				"bu(B)":       float64(res.MaxBUBytes),
				"subopts":     float64(res.SubOptions),
				"ha(dgm/s)":   res.HATunneledPerSec,
				"join-p50(s)": res.JoinDelays.Quantile(0.5),
				"join-max(s)": res.JoinDelays.Max(),
				"delivered":   float64(res.Delivered),
			}, res
		},
	}
	return exp.SweepResult("SMG: multi-group scaling of the Group List mechanism",
		spec.Columns, exp.Sweep(ctx, spec))
}

func runExpSLD(ctx exp.Context, p exp.Params) exp.Result {
	ctx.Opt = applyTQuery(ctx.Opt, p)
	depths := p.Ints("depths")
	// Points alternate receive modes per depth: local, then tunnel.
	points := make([]string, 0, 2*len(depths))
	for _, d := range depths {
		points = append(points,
			fmt.Sprintf("depth=%-2d local ", d),
			fmt.Sprintf("depth=%-2d tunnel", d))
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"join(ms)", "hops", "optimal", "tun(B/dgram)"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := runSLDOne(opt, depths[pt/2], pt%2 == 1)
			return map[string]float64{
				"join(ms)":     float64(res.JoinDelay.Milliseconds()),
				"hops":         res.MeanHops,
				"optimal":      float64(res.OptimalHops),
				"tun(B/dgram)": res.TunnelBytesPerDgram,
			}, res
		},
	}
	return exp.SweepResult("SLD: receive modes vs roaming depth (line topology)",
		spec.Columns, exp.Sweep(ctx, spec))
}

func runExpSMTU(ctx exp.Context, p exp.Params) exp.Result {
	ctx.Opt = applyTQuery(ctx.Opt, p)
	payloads := p.Ints("payloads")
	losses := p.Floats("losses")
	points := make([]string, 0, len(payloads)*len(losses))
	for _, loss := range losses {
		for _, pl := range payloads {
			points = append(points, fmt.Sprintf("payload=%d loss=%.0f%%", pl, loss*100))
		}
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"inner(B)", "outer(B)", "frag", "frames/dgram", "deliv-local", "deliv-tunnel"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			payload := payloads[pt%len(payloads)]
			loss := losses[pt/len(payloads)]
			res := runSMTUOne(opt, payload, loss)
			frag := 0.0
			if res.Fragmented {
				frag = 1
			}
			return map[string]float64{
				"inner(B)":     float64(res.InnerFrame),
				"outer(B)":     float64(res.OuterFrame),
				"frag":         frag,
				"frames/dgram": res.TunnelFramesPerDgram,
				"deliv-local":  res.DeliveryLocal,
				"deliv-tunnel": res.DeliveryTunnel,
			}, res
		},
	}
	return exp.SweepResult("SMTU: tunnel MTU boundary (MTU=1500)",
		spec.Columns, exp.Sweep(ctx, spec))
}
