// Command mip6sim runs the paper's experiments and prints their tables.
// Experiments come from the mip6mcast registry; -list shows every id with
// its parameter schema.
//
// Usage:
//
//	mip6sim -list                      # registered experiments + params
//	mip6sim -experiment all            # every experiment, in order
//	mip6sim -experiment t1             # the four-approach comparison
//	mip6sim -experiment s44 -unsolicited=false -replicates 5
//	mip6sim -experiment f2 -tquery 30
//	mip6sim -experiment all -json out/ # also write out/<id>.json results
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mip6mcast"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/live"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/telemetry"
	"mip6mcast/internal/topo"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id(s), comma-separated, or all (see -list)")
		list        = flag.Bool("list", false, "list registered experiments and their parameters")
		jsonDir     = flag.String("json", "", "also write machine-readable results to <dir>/<experiment>.json")
		workers     = flag.Int("workers", 0, "parallel timeline workers (0 = GOMAXPROCS)")
		replicates  = flag.Int("replicates", 3, "replicate runs for sweep experiments")
		seed        = flag.Int64("seed", 1, "simulation master seed")
		tquery      = flag.Int("tquery", 0, "MLD query interval in seconds (0 = RFC default 125)")
		unsolicited = flag.Bool("unsolicited", true, "mobile receivers send unsolicited MLD reports after moving")
		progress    = flag.Bool("progress", false, "report per-timeline scheduler stats to stderr as cells complete")
		traceOut    = flag.String("trace-out", "", "record each experiment's first timeline to <dir>/<id>.jsonl and <dir>/<id>.trace.json")
		topoSpec    = flag.String("topo", "", "procedural topology spec for the scale experiment: family=tree+grid,routers=4+16,mns=8 (keys optional)")
		shards      = flag.Int("shards", 0, "partition each generated topology into up to N regions run in parallel on one timeline (0/1 = one region; Figure 1 always collapses to one region)")
		shardWkrs   = flag.Int("shard-workers", 0, "goroutines driving shard regions within a window (0 = one per region); never affects the timeline, only wall-clock")
		coreDelay   = flag.Duration("core-delay", 0, "one-way delay override for non-LAN core links, applied at every shard count (sharded runs use it as the conservative sync lookahead; 0 = link delay)")
		dot         = flag.Bool("dot", false, "print the -topo topology (first family, first router count) as Graphviz DOT and exit")

		httpAddr       = flag.String("http", "", "serve a live run surface on this address: /metrics (Prometheus), /progress (NDJSON), /debug/pprof (tag-labeled profiles)")
		httpLinger     = flag.Duration("http-linger", 0, "keep the -http server up this long after the run completes (interrupt ends it early)")
		top            = flag.Bool("top", false, "print a post-run per-tag dispatch report (\"sim top\"); implies scheduler instrumentation")
		telemetryOut   = flag.String("telemetry-out", "", "sample each experiment's first timeline and write <dir>/<id>.telemetry.{csv,jsonl}")
		telemetryEvery = flag.Duration("telemetry-every", time.Second, "virtual-time sampling period for -telemetry-out")
	)
	flag.Parse()

	if *list {
		listExperiments()
		return
	}

	topoParams, err := parseTopoSpec(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dot {
		if err := printDOT(topoParams, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	opt := mip6mcast.DefaultOptions()
	if *tquery > 0 {
		opt = mip6mcast.FastMLDOptions(*tquery)
	}
	opt.Seed = *seed
	opt.Shards = *shards
	opt.ShardWorkers = *shardWkrs
	opt.CoreLinkDelay = *coreDelay
	// The live surface and the top report both need per-tag accounting;
	// the http surface additionally labels dispatch for pprof.
	if *top || *httpAddr != "" {
		opt.Instrument = true
	}
	opt.ProfileLabels = *httpAddr != ""
	opt.TelemetryEvery = *telemetryEvery
	ctx := mip6mcast.ExpContext{Opt: opt, Replicates: *replicates, Workers: *workers}

	// The -progress printer, the -top table and the -http surface all read
	// the Progress callback, which folds each cell into one live.Totals.
	// The experiment engine serializes Progress calls; curID is only
	// written between experiment runs.
	var (
		curID  string
		totals live.Totals
		ls     *liveServer
	)
	if *httpAddr != "" {
		var err error
		if ls, err = startHTTP(*httpAddr, &totals); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *progress || *top || ls != nil {
		ctx.Progress = func(cs exp.CellStats) {
			totals.Add(cs)
			if ls != nil {
				ls.feed.Publish(live.NewLine("", curID, cs))
			}
			if *progress {
				label := cs.Label
				if label == "" {
					label = fmt.Sprintf("variant %d", cs.Point)
				}
				fmt.Fprintf(os.Stderr, "  %s [%s rep %d]: %d events in %v (%.0f ev/s, hwm %d, vt %v)\n",
					curID, label, cs.Replicate, cs.Sched.Dispatched, cs.Wall.Round(time.Microsecond),
					cs.EventsPerSec(), cs.Sched.QueueHighWater, time.Duration(cs.Sched.Virtual))
			}
		}
	}

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = mip6mcast.Experiments()
	}
	for _, id := range ids {
		curID = id
		totals.Begin(id)
		e, ok := mip6mcast.GetExperiment(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n",
				id, strings.Join(mip6mcast.Experiments(), " "))
			os.Exit(2)
		}

		// Per-experiment parameter overrides from the shared flags. The
		// -tquery flag doubles as the sweep list for s44 (whose tquery
		// parameter is the swept variable).
		p := mip6mcast.ExpParams{}
		if *tquery > 0 {
			if k, ok := paramKind(e, "tquery"); ok {
				if k == exp.IntList {
					p["tquery"] = []int{*tquery}
				} else {
					p["tquery"] = *tquery
				}
			}
		}
		if e.HasParam("unsolicited") {
			p["unsolicited"] = *unsolicited
		}
		// The chaos sweep writes per-timeline traces itself; hand it the
		// trace directory so violating seeds come with a replayable JSONL.
		if *traceOut != "" && e.HasParam("tracedir") {
			p["tracedir"] = *traceOut
		}
		// -topo keys map onto the scale experiment's parameters; other
		// experiments (fixed Figure 1 topology) ignore them.
		for name, v := range topoParams {
			if e.HasParam(name) {
				p[name] = v
			}
		}

		// Trace and telemetry capture: record the experiment's first
		// timeline cell (point 0, replicate 0 — the master seed's run).
		// The factories may be called from parallel workers; they only
		// read.
		var rec *obs.Recorder
		if *traceOut != "" {
			rec = obs.NewRecorder(nil)
			ctx.Recorder = func(pt, rep int) *obs.Recorder {
				if pt == 0 && rep == 0 {
					return rec
				}
				return nil
			}
		}
		var reg *telemetry.Registry
		if *telemetryOut != "" {
			reg = telemetry.NewRegistry()
			r := reg
			ctx.Telemetry = func(pt, rep int) *telemetry.Registry {
				if pt == 0 && rep == 0 {
					return r
				}
				return nil
			}
		}

		res, err := mip6mcast.RunExperiment(id, ctx, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Print(res.Render())
		fmt.Println()

		if rec != nil {
			if err := writeTraces(*traceOut, id, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if reg != nil {
			if err := writeTelemetry(*telemetryOut, id, reg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}

		if *jsonDir != "" {
			resolved, err := e.ResolveParams(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			path, err := exp.WriteJSON(*jsonDir, exp.ResultJSON(id, ctx, resolved, res))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	totals.End()
	if *progress {
		totals.WriteSummary(os.Stderr)
	}
	if *top {
		totals.WriteTable(os.Stdout)
	}
	if ls != nil {
		ls.finish(*httpLinger)
	}
}

// writeTelemetry exports one cell's sampled time series as CSV and JSONL.
func writeTelemetry(dir, id string, reg *telemetry.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cp := filepath.Join(dir, id+".telemetry.csv")
	cf, err := os.Create(cp)
	if err != nil {
		return err
	}
	if err := reg.WriteCSV(cf); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	jp := filepath.Join(dir, id+".telemetry.jsonl")
	jf, err := os.Create(jp)
	if err != nil {
		return err
	}
	if err := reg.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s (%d samples)\n", cp, jp, len(reg.Rows()))
	return nil
}

// writeTraces exports one recorded timeline as deterministic JSONL and a
// Chrome trace-event (Perfetto) file.
func writeTraces(dir, id string, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jp := filepath.Join(dir, id+".jsonl")
	jf, err := os.Create(jp)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	pp := filepath.Join(dir, id+".trace.json")
	pf, err := os.Create(pp)
	if err != nil {
		return err
	}
	if err := rec.WritePerfetto(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s (%d events)\n", jp, pp, rec.Len())
	return nil
}

// parseTopoSpec turns "family=tree+grid,routers=4+16,mns=8" into the
// scale experiment's parameters. Lists use '+' because ',' separates the
// spec's key=value pairs.
func parseTopoSpec(spec string) (exp.Params, error) {
	p := exp.Params{}
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("-topo: %q is not key=value", kv)
		}
		switch key {
		case "family", "families":
			if _, err := mip6mcast.ParseFamilies(val); err != nil {
				return nil, fmt.Errorf("-topo: %v", err)
			}
			p["families"] = val
		case "routers":
			var routers []int
			for _, f := range strings.Split(val, "+") {
				n, err := strconv.Atoi(f)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("-topo: bad router count %q", f)
				}
				routers = append(routers, n)
			}
			p["routers"] = routers
		case "mns", "sources", "dwell", "horizon":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-topo: bad %s count %q", key, val)
			}
			p[key] = n
		case "members":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("-topo: bad member fraction %q", val)
			}
			p[key] = f
		case "approach":
			if _, ok := mip6mcast.ApproachByName(val); !ok {
				return nil, fmt.Errorf("-topo: unknown approach %q (registered: %v)",
					val, mip6mcast.ApproachNames())
			}
			p[key] = val
		case "engine":
			names := scenario.EngineNames()
			found := false
			for _, n := range names {
				if n == val {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("-topo: unknown engine %q (registered: %v)", val, names)
			}
			p[key] = val
		default:
			return nil, fmt.Errorf("-topo: unknown key %q (want family, routers, mns, sources, members, dwell, horizon, approach or engine)", key)
		}
	}
	return p, nil
}

// printDOT renders the first (family, router count) of a -topo spec as
// Graphviz DOT on stdout:
//
//	mip6sim -dot -topo family=waxman,routers=16 | dot -Tsvg > topo.svg
func printDOT(topoParams exp.Params, seed int64) error {
	family, routers := "tree", 16
	if v, ok := topoParams["families"].(string); ok {
		fams, err := mip6mcast.ParseFamilies(v)
		if err != nil {
			return err
		}
		family = fams[0]
	}
	if v, ok := topoParams["routers"].([]int); ok && len(v) > 0 {
		routers = v[0]
	}
	g, err := topo.FromSpec(family, routers, seed)
	if err != nil {
		return err
	}
	fmt.Print(g.DOT())
	return nil
}

func paramKind(e *mip6mcast.Experiment, name string) (exp.Kind, bool) {
	for _, sp := range e.Params {
		if sp.Name == name {
			return sp.Kind, true
		}
	}
	return 0, false
}

func listExperiments() {
	for _, e := range exp.All() {
		kind := ""
		if e.Sweep {
			kind = "  [sweep]"
		}
		fmt.Printf("%-5s %s%s\n", e.Name, e.Desc, kind)
		for _, sp := range e.Params {
			fmt.Printf("        -%s %s (default %v): %s\n", sp.Name, sp.Kind, sp.Default, sp.Desc)
		}
	}
}
