package mip6mcast

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mip6mcast/internal/check"
	"mip6mcast/internal/core"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// CHAOS — the fault-injection sweep. Each cell runs the Figure 1 movement
// scenario under one impairment profile (loss, jitter, reordering,
// duplication, Gilbert–Elliott bursts, corruption, link flaps, a router
// crash/restart), heals the network, lets the protocols quiesce and then
// asserts the convergence invariants of internal/check. The protocols are
// supposed to converge through any finite amount of impairment, so every
// violation is a bug; the outcome carries the replicate's seed and (when a
// trace directory is configured) a JSONL trace for deterministic replay.

// chaosCell is one impairment profile of the matrix.
type chaosCell struct {
	name string
	// loss is an independent per-delivery loss rate applied to every link.
	loss float64
	// imp builds the cell's Impairment (nil: none). A fresh value per
	// timeline keeps cells self-contained even though Impairment is
	// read-only at runtime.
	imp func() *netem.Impairment
	// flap cuts L3 (the backbone link) for 14 s mid-churn.
	flap bool
	// crash fails router D — home agent for L4/L5 and the only router on
	// R3's home link — for 8 s mid-churn.
	crash bool
}

func chaosMatrix() []chaosCell {
	return []chaosCell{
		{name: "baseline"},
		{name: "loss-10", loss: 0.10},
		{name: "jitter-30ms", imp: func() *netem.Impairment {
			return &netem.Impairment{Jitter: 30 * time.Millisecond}
		}},
		{name: "reorder-15", imp: func() *netem.Impairment {
			return &netem.Impairment{ReorderProb: 0.15, ReorderDelay: 50 * time.Millisecond}
		}},
		{name: "dup-15", imp: func() *netem.Impairment {
			return &netem.Impairment{DupProb: 0.15}
		}},
		{name: "burst-ge", imp: func() *netem.Impairment {
			return &netem.Impairment{PGB: 0.05, PBG: 0.25, GoodLoss: 0.01, BadLoss: 0.5}
		}},
		{name: "corrupt-5", imp: func() *netem.Impairment {
			return &netem.Impairment{CorruptProb: 0.05}
		}},
		{name: "flap-L3", flap: true},
		{name: "crash-D", crash: true},
		{name: "all-in", loss: 0.05, flap: true, crash: true,
			imp: func() *netem.Impairment {
				return &netem.Impairment{
					Jitter: 20 * time.Millisecond, ReorderProb: 0.10,
					DupProb: 0.10, CorruptProb: 0.02,
					PGB: 0.03, PBG: 0.3, GoodLoss: 0.005, BadLoss: 0.3,
				}
			}},
	}
}

// ChaosOutcome is one (cell, replicate) timeline's verdict.
type ChaosOutcome struct {
	Cell string
	// Engine is the multicast engine the timeline ran (pimdm, hpimdm).
	Engine string
	// Seed replays the timeline: mip6sim -experiment chaos -seed <Seed>
	// -replicates 1 reruns this exact event sequence.
	Seed       int64
	Violations []string
	// TracePath is the timeline's JSONL trace ("" when tracing is off).
	TracePath string
	// DelivR1 and DelivR3 are whole-run delivery ratios (R3 churns, so its
	// ratio reflects the leave/rejoin/move windows, not protocol failure).
	DelivR1, DelivR3 float64
	// ConvTime is the post-churn convergence time: seconds from the heal
	// instant (t=75) until the first 1 s sample at which every internal/check
	// invariant holds. Capped at the quiesce window when convergence is never
	// observed (the violation list then says why).
	ConvTime float64
	// PIMBytes totals the PIM control class over every link for the whole
	// run — the head-to-head overhead axis of the engine comparison.
	PIMBytes uint64
	// Link-level impairment counters summed over all links.
	Lost, Dup, Corrupted uint64
}

// ChaosOptions returns base with the chaos sweep's protocol tuning
// applied (see chaosTune) — the configuration StartChaos expects, exposed
// for out-of-process drivers like mip6simd's warm-checkpoint pool.
func ChaosOptions(base Options) Options { return chaosTune(base) }

// chaosTune applies the sweep's protocol configuration: fast MLD timers so
// membership horizons fit the run, and PIM State Refresh so prune state
// heals without waiting out PruneHoldtime re-floods (lost override Joins
// and crashed-router state both recover through refresh rounds).
func chaosTune(opt Options) Options {
	opt.MLD = mld.FastConfig(10 * time.Second)
	opt.PIM.StateRefreshInterval = 20 * time.Second
	return opt
}

// ChaosWarmTime ends the warm prefix every chaos cell shares: by t=15 s
// registrations, joins and the multicast tree are built, and no cell has
// applied its impairment yet. A given (engine, seed) produces the same
// prefix byte-for-byte in every cell, so a sweep service can run it once,
// checkpoint it, and fork all ten cells from that one artifact.
const ChaosWarmTime = 15 * time.Second

// StartChaos builds the chaos scenario (the Figure 1 network under the
// tuned options — see chaosTune) and runs the shared warm prefix to
// ChaosWarmTime. The returned run is the fork point: hand it to
// RunChaosCell to drive one impairment cell to its verdict.
func StartChaos(opt Options) *Run {
	return StartChaosWith(opt, LocalMembership)
}

// StartChaosWith is StartChaos under any approach whose members receive
// on the visited link (local membership or the proxy hierarchy) — the
// matrix's invariant checks model local reception, so tunnel-receiving
// approaches are rejected up front by runExpChaos.
func StartChaosWith(opt Options, approach Approach) *Run {
	if opt.Obs == nil {
		opt.Obs = obs.NewRecorder(nil)
	}
	r := NewRun(opt, approach, 200*time.Millisecond, 256)
	r.F.Run(ChaosWarmTime)
	return r
}

// ChaosCells lists the impairment matrix's cell names in sweep order.
func ChaosCells() []string {
	cells := chaosMatrix()
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	return names
}

// RunChaosCell drives one warmed chaos run (from StartChaos) through the
// named impairment cell. A run is one timeline: fork a fresh StartChaos
// (or restore one from a checkpoint) per cell.
func RunChaosCell(r *Run, cell, tracedir string) (ChaosOutcome, error) {
	for _, c := range chaosMatrix() {
		if c.name == cell {
			return finishChaos(r, c, tracedir), nil
		}
	}
	return ChaosOutcome{}, fmt.Errorf("chaos: unknown cell %q (have %v)", cell, ChaosCells())
}

// runChaosOne drives one timeline: settle (0–15 s), impaired churn
// (15–75 s: leave/rejoin, two moves, optional flap and crash), heal at
// 75 s, quiesce to 150 s, then check invariants.
func runChaosOne(opt Options, approach Approach, cell chaosCell, tracedir string) ChaosOutcome {
	return finishChaos(StartChaosWith(opt, approach), cell, tracedir)
}

// finishChaos takes a warmed run at ChaosWarmTime through one cell's
// impaired churn, heal and quiesce, then checks invariants.
func finishChaos(r *Run, cell chaosCell, tracedir string) ChaosOutcome {
	f := r.F
	opt := f.Opt
	rec := opt.Obs

	var imp *netem.Impairment
	if cell.imp != nil {
		imp = cell.imp()
	}
	for _, l := range f.Links {
		l.Impair = imp
		l.LossRate = cell.loss
	}

	f.Run(5 * time.Second) // t=20
	r.Services["R3"].Leave(Group)
	f.Run(8 * time.Second) // t=28
	r.Services["R3"].Join(Group)
	f.Run(7 * time.Second) // t=35
	r.MoveHost("R3", "L5")
	f.Run(10 * time.Second) // t=45
	if cell.crash {
		r.F.CrashRouter("D")
	}
	if cell.flap {
		f.Links["L3"].SetUp(false)
	}
	f.Run(8 * time.Second) // t=53
	if cell.crash {
		r.F.RestartRouter("D")
	}
	f.Run(6 * time.Second) // t=59
	if cell.flap {
		f.Links["L3"].SetUp(true)
	}
	f.Run(6 * time.Second)  // t=65
	r.MoveHost("R3", "L4")  // back home
	f.Run(10 * time.Second) // t=75: heal
	for _, l := range f.Links {
		l.Impair = nil
		l.LossRate = 0
	}

	expct := check.Expectation{
		Source:  f.Hosts["S"].MN.HomeAddress,
		Group:   Group,
		Members: map[string]bool{"R1": true, "R2": true, "R3": true},
	}
	// Quiesce to t=150, sampling convergence once per simulated second.
	// The checks are read-only inspections of router state between event
	// batches, so the sampling loop leaves the trace byte-identical to an
	// unsampled run.
	healAt := f.Sched.Now()
	const quiesce = 75
	conv := float64(quiesce)
	for i := 0; i < quiesce; i++ {
		f.Run(time.Second)
		if conv == quiesce && len(check.Converged(f, expct)) == 0 {
			conv = time.Duration(f.Sched.Now() - healAt).Seconds()
		}
	}

	vs := check.Converged(f, expct)
	vs = append(vs, check.GraftLiveness(rec.Events(), opt.PIM.GraftRetry, 2*time.Second, f.Sched.Now())...)

	out := ChaosOutcome{Cell: cell.name, Engine: opt.EngineName(), Seed: opt.Seed, ConvTime: conv}
	for _, v := range vs {
		out.Violations = append(out.Violations, v.String())
	}
	out.PIMBytes = f.Acct.TotalBytes(metrics.ClassPIM)
	if sent := float64(r.CBR.Sent); sent > 0 {
		end := sim.Time(1 << 62)
		out.DelivR1 = float64(r.Probes["R1"].CountBetween(0, end)) / sent
		out.DelivR3 = float64(r.Probes["R3"].CountBetween(0, end)) / sent
	}
	for _, l := range f.Links {
		out.Lost += l.LostDeliveries
		out.Dup += l.DupDeliveries
		out.Corrupted += l.CorruptedDeliveries
	}
	if tracedir != "" {
		stem := cell.name
		if a := r.Approach.String(); a != "local-membership" {
			stem = a + "-" + stem
		}
		out.TracePath = writeTimelineTrace(tracedir, "chaos", out.Engine, stem, cell.name, opt.Seed, rec)
	}
	return out
}

// writeTimelineTrace exports one sweep timeline's JSONL trace as
// dir/<experiment>-[<engine>-]<stem>-seed<seed>.jsonl: a replay metadata
// line, then the event stream. The name embeds the cell and seed, so
// reruns at any worker count produce the same file set with identical
// bytes — the determinism artifact the CI smoke diffs — and the engine
// tag (omitted for the default pimdm) keeps a comparison run from
// colliding with the default file set. Returns "" on I/O failure:
// tracing is best-effort, and the experiment result still carries the
// timeline's verdict.
func writeTimelineTrace(dir, experiment, eng, stem, cell string, seed int64, rec *obs.Recorder) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	if eng != "pimdm" {
		stem = eng + "-" + stem
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.jsonl", experiment, stem, seed))
	w, err := os.Create(path)
	if err != nil {
		return ""
	}
	fmt.Fprintf(w, "{\"meta\":{\"experiment\":%q,\"engine\":%q,\"cell\":%q,\"seed\":%d}}\n",
		experiment, eng, cell, seed)
	if err := rec.WriteJSONL(w); err != nil {
		w.Close()
		return ""
	}
	if err := w.Close(); err != nil {
		return ""
	}
	return path
}

func runExpChaos(ctx exp.Context, p exp.Params) exp.Result {
	ctx.Opt = applyEngine(chaosTune(ctx.Opt), p)
	approach := applyApproach(p)
	if approach.Receive == core.ReceiveHomeTunnel {
		panic(fmt.Sprintf("chaos: approach %q receives via the home-agent tunnel; the matrix's invariants model local reception (use local-membership or proxy-hierarchy)", approach))
	}
	tracedir := p.Str("tracedir")
	cells := chaosMatrix()
	points := make([]string, len(cells))
	for i, c := range cells {
		points[i] = c.name
	}
	spec := exp.SweepSpec{
		Points:  points,
		Columns: []string{"violations", "conv(s)", "deliv-R1", "deliv-R3", "pim(KB)", "lost", "dup"},
		Run: func(opt scenario.Options, pt int) (map[string]float64, any) {
			res := runChaosOne(opt, approach, cells[pt], tracedir)
			return map[string]float64{
				"violations": float64(len(res.Violations)),
				"conv(s)":    res.ConvTime,
				"deliv-R1":   res.DelivR1,
				"deliv-R3":   res.DelivR3,
				"pim(KB)":    float64(res.PIMBytes) / 1024,
				"lost":       float64(res.Lost),
				"dup":        float64(res.Dup),
			}, res
		},
	}
	return exp.SweepResult("CHAOS: impairment matrix with invariant checks",
		spec.Columns, exp.Sweep(ctx, spec))
}
