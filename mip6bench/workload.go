package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/check"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// workload is one named closed loop of simulation cells: one cell runs at
// a time in this process, and cell i of a run started at seed S runs at
// seed S+i.
type workload struct {
	name string
	// scale is the scale-experiment cell; nil selects the Figure 1
	// approach × engine cycle.
	scale *scaleCell
	// cycle is how many cells it takes to run every kind of cell the
	// workload has once. The first cycle warms a run up, and its cells feed
	// the model.* metrics and the model digest; it is fixed per workload, so
	// those outputs depend on the seed alone and never on how many cells fit
	// in the time limit.
	cycle int
}

// scaleCell is one cell of the registry's "scale" experiment.
type scaleCell struct {
	family       string
	routers, mns int
	dwell        int // mean seconds between handovers
	approach     string
	engine       string
	shards       int
}

// The workloads and why each was chosen are described in README.md. The
// scale cells take about a second or less, so that a run times dozens of
// them and cellTime has a tenth to read.
var workloads = []*workload{
	{name: "fig1-approaches", cycle: len(fig1Engines) * len(mip6mcast.Approaches())},
	{name: "ba-r100-sharded", cycle: 1, scale: &scaleCell{
		family: "ba", routers: 100, mns: 400, dwell: 20,
		approach: "local-membership", engine: "pimdm", shards: 4}},
	{name: "grid-r100-tunnel-churn", cycle: 1, scale: &scaleCell{
		family: "grid", routers: 100, mns: 150, dwell: 2,
		approach: "bidir-tunnel", engine: "hpimdm", shards: 1}},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fig1Engines are the dense-mode engines the Figure 1 cycle alternates.
var fig1Engines = []string{"pimdm", "hpimdm"}

// The shared shape of every scale cell: a 30 s churn window between the
// experiment's fixed settle and quiesce phases, and 2 ms core links (the
// sharded kernel's lookahead, applied at every shard count so sequential
// and sharded cells model the same network).
const (
	scaleHorizon  = 30
	coreLinkDelay = 2 * time.Millisecond
)

// outcome is what one cell simulated. A change that only makes the
// simulator faster must leave every field identical for the same seed.
type outcome struct {
	events               uint64 // dispatched over every scheduler
	joinP50, joinP95     float64
	ctrlBytes, dataBytes uint64
	sgHighWater          int
	violations           []string
	// detail carries further simulated outputs that enter only the digest.
	detail string
}

func (o outcome) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v %v %d %d %d %q %s", o.events, o.joinP50, o.joinP95,
		o.ctrlBytes, o.dataBytes, o.sgHighWater, o.violations, o.detail)
	return h.Sum64()
}

// graph generates the cell's topology, as the cell itself does, for the
// post-run set-up timings.
func (w *workload) graph(seed int64) (*topo.Graph, error) {
	if w.scale == nil {
		return topo.Figure1(), nil
	}
	return topo.FromSpec(w.scale.family, w.scale.routers, seed)
}

// run simulates cell i at seed. onNet observes the network once it is built.
func (w *workload) run(seed int64, i int, onNet func(*scenario.Network)) (outcome, error) {
	if w.scale == nil {
		return runFig1(seed, i, onNet)
	}
	return w.scale.run(seed, onNet)
}

// runFig1 runs the paper's Figure 1 under cell i's approach and engine: S
// sends 10 pps × 256 B, R1–R3 join, R3 moves to L6 at 15 s, and the cell
// ends at 30 s. Every receiver must get a datagram in the final 10 s and
// no graft may be left pending.
func runFig1(seed int64, i int, onNet func(*scenario.Network)) (outcome, error) {
	approaches := mip6mcast.Approaches()
	approach := approaches[i%len(approaches)]
	opt := mip6mcast.FastMLDOptions(10)
	opt.Seed = seed
	opt.Engine = fig1Engines[i/len(approaches)%len(fig1Engines)]
	opt.OnNetwork = onNet
	r := mip6mcast.NewRun(opt, approach, 100*time.Millisecond, 256)
	sgHi := 0
	r.F.SamplePeriodic(time.Second, func() {
		if n := r.F.TotalSGEntries(); n > sgHi {
			sgHi = n
		}
	})
	r.F.RunUntil(sim.Time(15 * time.Second))
	moved := r.MoveHost("R3", "L6")
	r.F.RunUntil(sim.Time(30 * time.Second))

	out := outcome{sgHighWater: sgHi}
	for _, name := range []string{"R1", "R2", "R3"} {
		if _, ok := r.Probes[name].FirstAfter(sim.Time(20 * time.Second)); !ok {
			out.violations = append(out.violations, "no datagram at "+name+" in the final 10 s")
		}
		out.detail += fmt.Sprintf("%s=%d ", name, r.Probes[name].Count())
	}
	for _, v := range check.GraftsResolved(r.F) {
		out.violations = append(out.violations, v.String())
	}
	if d, ok := r.JoinDelay("R3", moved); ok {
		ms := float64(d) / float64(time.Millisecond)
		out.joinP50, out.joinP95 = ms, ms
	}
	out.detail += fmt.Sprintf("%s/%s sent=%d haload=%d", approach, opt.Engine, r.CBR.Sent, r.HALoad())
	return out, nil
}

// run drives one cell of the registry's scale experiment through the
// public RunExperiment entry point.
func (c *scaleCell) run(seed int64, onNet func(*scenario.Network)) (outcome, error) {
	opt := mip6mcast.DefaultOptions()
	opt.Seed = seed
	opt.Shards = c.shards
	opt.ShardWorkers = shardWorkers
	opt.CoreLinkDelay = coreLinkDelay
	opt.OnNetwork = onNet
	res, err := mip6mcast.RunExperiment("scale",
		mip6mcast.ExpContext{Opt: opt, Replicates: 1, Workers: 1},
		mip6mcast.ExpParams{
			"families": c.family,
			"routers":  []int{c.routers},
			"mns":      c.mns,
			"dwell":    c.dwell,
			"horizon":  scaleHorizon,
			"approach": c.approach,
			"engine":   c.engine,
		})
	if err != nil {
		return outcome{}, err
	}
	pt := res.Stats[0]
	if pt.Errs[0] != "" {
		return outcome{}, errors.New(pt.Errs[0])
	}
	o := pt.Raw[0].(mip6mcast.ScaleOutcome)
	return outcome{
		joinP50:     o.JoinP50 * 1000,
		joinP95:     o.JoinP95 * 1000,
		sgHighWater: o.SGHighWater,
		violations:  o.Violations,
		detail:      fmt.Sprintf("%+v", o),
	}, nil
}
