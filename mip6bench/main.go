// Command mip6bench is the repository's benchmark. One run measures one
// named workload of the simulator, starting at a given seed, for a given
// time, and prints its metrics as one JSON line:
//
//	bash mip6bench/run.sh --workload fig1-approaches --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end_to_end metrics of BENCHMARK.json, measured
// untraced; --trace 1 prints the per_layer metrics of a traced run. To
// compare two sets of saved runs against the bounds in BENCHMARK.json:
//
//	mip6bench -compare before/ after/
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with their
// units; the smoke test keeps the two in step.
var endToEnd = []metricDef{
	{"cell_s_p10", "s"},
	{"setup_s", "s"},
	{"alloc_mb_per_cell", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"ipv6.decode_ns", "ns"},
	{"ipv6.encode_ns", "ns"},
	{"ipv6.frame_bytes", "B"},
	{"ipv6.tunneled_share", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.bytes_per_event", "B"},
	{"sim.dispatch_ns_per_event", "ns"},
	{"sim.queue_hwm", "count"},
	{"sim.tag_coverage", "ratio"},
	{"sim.kernel_windows", "count"},
	{"sim.parallel_efficiency", "ratio"},
	{"netem.frames", "count"},
	{"netem.deliveries_per_frame", "ratio"},
	{"netem.link_ns_per_event", "ns"},
	{"netem.link_self_ns_per_event", "ns"},
	{"netem.link_wall_share", "ratio"},
	{"routing.nexthop_calls", "count"},
	{"routing.nexthop_ns.router", "ns"},
	{"routing.nexthop_ns.host", "ns"},
	{"routing.rpf_ns", "ns"},
	{"engine.forward_calls", "count"},
	{"engine.forward_ns", "ns"},
	{"routing.recompute_s", "s"},
	{"topo.gen_s", "s"},
	{"topo.partition_s", "s"},
	{"scenario.build_s", "s"},
	{"engine.ctrl_events", "count"},
	{"engine.ctrl_ns_per_event", "ns"},
	{"engine.ctrl_msgs", "count"},
	{"mld.events", "count"},
	{"mld.ns_per_event", "ns"},
	{"mipv6.events", "count"},
	{"mipv6.encap_ns", "ns"},
	{"mipv6.tunneled", "count"},
	{"other.wall_share", "ratio"},
	{"model.join_p50_ms", "ms"},
	{"model.join_p95_ms", "ms"},
	{"model.ctrl_kb", "kB"},
	{"model.data_mb", "MB"},
	{"model.sg_high_water", "count"},
	{"model.violations", "count"},
	{"trace.overhead", "ratio"},
}

// stamp is the first line of a run's output: what ran, where. Compare mode
// reads the workload from it.
type stamp struct {
	Kind     string    `json:"mip6bench"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    int       `json:"trace"`
	Host     hostStamp `json:"host"`
}

// modelLine precedes a traced run's result: the digest of its model cells'
// simulated outcomes, which a speed-only change must keep per seed.
type modelLine struct {
	Kind   string `json:"mip6bench"`
	Digest string `json:"model.digest"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "seed of the run's first cell; cell i runs at seed+i")
	seconds := flag.Float64("seconds", 40, "how long the run lasts, warm-up included")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	compare := flag.Bool("compare", false, "compare two sets of saved runs: -compare A B")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds (compare mode)")
	flag.Parse()

	runtime.GOMAXPROCS(workers())
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mip6bench: -compare needs two result sets: files or directories of saved run output")
			os.Exit(2)
		}
		regressed, err := compareRuns(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mip6bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mip6bench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mip6bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mip6bench: -seconds must be positive")
		os.Exit(2)
	}

	enc := json.NewEncoder(os.Stdout)
	must(enc.Encode(stamp{Kind: "stamp", Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: stampHost()}))
	limit := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		var digest string
		res, digest = measureTraced(w, *seed, limit, 0)
		must(enc.Encode(modelLine{Kind: "model", Digest: digest}))
	} else {
		res = measure(w, *seed, limit, 0)
	}
	printTable(res)
	must(enc.Encode(res))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable writes the metrics for a human reader to standard error.
func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "%-30s %14d of %d cells\n", "failed", res.Failed, res.Attempted)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mip6bench:", err)
		os.Exit(1)
	}
}
