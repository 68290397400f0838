// Command mip6trace runs a movement scenario on the paper's Figure 1
// network and dumps the decoded packet trace: floods, prunes, grafts,
// asserts, MLD queries/reports, binding updates, and tunneled datagrams.
//
// Besides the human-readable text dump it can export the run as an
// observability timeline: deterministic JSONL (one event per line) or a
// Chrome trace-event file for the Perfetto UI (https://ui.perfetto.dev),
// with per-node tracks for every protocol state machine plus the decoded
// link transmissions.
//
// Usage:
//
//	mip6trace                         # bidirectional tunnel, default timers
//	mip6trace -approach local -kinds pim-prune,pim-graft,data
//	mip6trace -duration 120s -move-receiver 30s -move-sender 60s
//	mip6trace -format perfetto -o fig1.trace.json
//	mip6trace -format jsonl -sched-stats -o fig1.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mip6mcast"
	"mip6mcast/internal/core"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/live"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/trace"
)

func main() {
	var (
		approachName = flag.String("approach", "bidir", "approach: "+strings.Join(core.ApproachNames(), ", ")+" (or alias "+strings.Join(core.ApproachAliases(), "/")+")")
		kinds        = flag.String("kinds", "", "comma-separated event kinds to keep (empty = all)")
		duration     = flag.Duration("duration", 150*time.Second, "total virtual time")
		moveReceiver = flag.Duration("move-receiver", 30*time.Second, "when R3 moves to Link 6 (0 = never)")
		moveSender   = flag.Duration("move-sender", 90*time.Second, "when S moves to Link 6 (0 = never)")
		interval     = flag.Duration("interval", time.Second, "CBR datagram interval")
		tquery       = flag.Int("tquery", 30, "MLD query interval seconds")
		seed         = flag.Int64("seed", 1, "simulation seed")
		format       = flag.String("format", "text", "output format: text | jsonl | perfetto")
		outPath      = flag.String("o", "", "output file (default stdout)")
		schedStats   = flag.Bool("sched-stats", false, "print scheduler run stats (per-tag timing) to stderr")
		summary      = flag.String("summary", "", "print a per-track summary of a recorded JSONL trace file and exit (no simulation)")
	)
	flag.Parse()

	if *summary != "" {
		if err := summarize(os.Stdout, *summary); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	approach, ok := mip6mcast.ApproachByName(*approachName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown approach %q (want a registered name: %s; or alias: %s)\n",
			*approachName, strings.Join(core.ApproachNames(), ", "), strings.Join(core.ApproachAliases(), ", "))
		os.Exit(2)
	}
	if *format != "text" && *format != "jsonl" && *format != "perfetto" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, jsonl or perfetto)\n", *format)
		os.Exit(2)
	}

	// Validate -kinds against the decoder's vocabulary up front: a typo
	// would otherwise silently filter everything out.
	var keep map[string]bool
	if *kinds != "" {
		keep = map[string]bool{}
		var bad []string
		for _, k := range strings.Split(*kinds, ",") {
			k = strings.TrimSpace(k)
			if _, ok := trace.KindNamed(k); !ok {
				bad = append(bad, k)
				continue
			}
			keep[k] = true
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			fmt.Fprintf(os.Stderr, "unknown event kind(s) %s; valid kinds: %s\n",
				strings.Join(bad, ", "), strings.Join(trace.KnownKinds(), " "))
			os.Exit(2)
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	opt := mip6mcast.FastMLDOptions(*tquery)
	opt.Seed = *seed
	opt.Instrument = *schedStats

	kindFilter := func(e trace.Event) bool { return keep == nil || keep[e.Kind] }

	// Text mode streams decoded transmissions as they happen; the timeline
	// formats record state machines + link events and export at the end.
	// Either attaches as soon as the network is built, before any host
	// joins.
	var rec *obs.Recorder
	var w *trace.Writer
	opt.OnNetwork = func(f *scenario.Network) {
		if *format == "text" {
			w = &trace.Writer{W: out, Filter: kindFilter}
			w.Attach(f.Net)
		} else {
			rec = obs.NewRecorder(f.Sched)
			f.AttachRecorder(rec)
			trace.RecordLinks(rec, f.Net, kindFilter)
		}
	}
	f := mip6mcast.NewRun(opt, approach, *interval, 64).F

	banner := func(s string) {
		if *format == "text" {
			fmt.Fprintf(out, "%10s ---- %s ----\n", f.Sched.Now(), s)
		} else {
			rec.Instant("net", "scenario", "move", s)
		}
	}
	// Moves are driver actions: each runs at a kernel barrier, after every
	// event before its instant and before every event at it.
	if *moveReceiver > 0 {
		f.At(sim.Time(*moveReceiver), func() {
			banner("R3 moves to L6")
			f.Move("R3", "L6")
		})
	}
	if *moveSender > 0 {
		f.At(sim.Time(*moveSender), func() {
			banner("S moves to L6")
			f.Move("S", "L6")
		})
	}
	start := time.Now()
	f.Run(*duration)
	wall := time.Since(start)

	switch *format {
	case "text":
		fmt.Fprintf(out, "---- %d events, %s of virtual time, approach=%s ----\n", w.Count, *duration, approach)
	case "jsonl":
		if err := rec.WriteJSONL(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "perfetto":
		if err := rec.WritePerfetto(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *schedStats {
		cell := exp.CellStats{Wall: wall}
		for _, s := range f.Scheds() {
			cell.Sched = exp.MergeRunStats(cell.Sched, s.RunStats())
		}
		var t live.Totals
		t.Add(cell)
		t.WriteTable(os.Stderr)
	}
}
