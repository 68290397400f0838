package mip6mcast

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mip6mcast/internal/check"
	"mip6mcast/internal/core"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// shardSmokeTrace runs the ba-r40-mn80 scale smoke cell — cross-region
// CBR traffic, region-confined handover churn, the full invariant check —
// and returns the merged JSONL trace plus the outcome. The cell is the
// determinism probe for the sharded kernel: every byte of the trace is a
// function of (seed, shard count) and must never depend on worker count.
// onNet, when non-nil, is the run's Options.OnNetwork hook.
func shardSmokeTrace(t *testing.T, engine string, shards, workers int, onNet func(*scenario.Network)) ([]byte, ScaleOutcome) {
	t.Helper()
	opt := chaosTune(DefaultOptions())
	opt.OnNetwork = onNet
	opt.Seed = 1
	opt.Engine = engine
	opt.Shards = shards
	opt.ShardWorkers = workers
	opt.CoreLinkDelay = 2 * time.Millisecond
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	out := runScaleOne(opt, scaleCell{family: "ba", routers: 40, mns: 80}, scaleConfig{
		sources:    1,
		memberFrac: 0.5,
		dwell:      20 * time.Second,
		horizon:    30 * time.Second,
		approach:   LocalMembership,
	})
	rec.MergeShards()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorded nothing")
	}
	return buf.Bytes(), out
}

func diffTraces(t *testing.T, label string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s: traces diverge at line %d:\n a: %s\n b: %s",
				label, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s: trace lengths diverge: %d vs %d lines", label, len(al), len(bl))
}

// TestShardTraceWorkerInvariance is the core determinism contract of the
// parallel kernel: for a fixed seed and shard count, the merged trace is
// byte-identical whether regions execute on one worker or eight, for both
// engines, and the cell reports zero invariant violations. check.sh runs
// this under the race detector, where any cross-region data race or
// merge-order bug is also a crash.
func TestShardTraceWorkerInvariance(t *testing.T) {
	for _, engine := range []string{"pimdm", "hpimdm"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			for _, shards := range []int{2, 4} {
				w1, out1 := shardSmokeTrace(t, engine, shards, 1, nil)
				w8, out8 := shardSmokeTrace(t, engine, shards, 8, nil)
				diffTraces(t, fmt.Sprintf("shards=%d workers 1 vs 8", shards), w1, w8)
				if len(out1.Violations) != 0 || len(out8.Violations) != 0 {
					t.Fatalf("shards=%d: violations w1=%d w8=%d (first: %v)",
						shards, len(out1.Violations), len(out8.Violations),
						append(out1.Violations, out8.Violations...)[0])
				}
			}
		})
	}
}

// TestShardOneMatchesSequential pins the compatibility edge of the
// contract: -shards 1 must reproduce the plain sequential timeline
// byte-for-byte (worker count irrelevant), for both engines.
func TestShardOneMatchesSequential(t *testing.T) {
	for _, engine := range []string{"pimdm", "hpimdm"} {
		seq, outSeq := shardSmokeTrace(t, engine, 0, 0, nil)
		one, outOne := shardSmokeTrace(t, engine, 1, 8, nil)
		diffTraces(t, engine+": shards=1 vs sequential", seq, one)
		if len(outSeq.Violations) != 0 || len(outOne.Violations) != 0 {
			t.Fatalf("%s: violations seq=%d one=%d", engine,
				len(outSeq.Violations), len(outOne.Violations))
		}
	}
}

// TestFigure1GoldenShards re-runs the pinned golden-trace scenario with
// -shards set. Figure 1 is all multi-access LANs, so the partitioner must
// collapse it to a single region at any shard count and the build must be
// a one-region kernel — the golden bytes are the proof that turning
// sharding on cannot perturb a topology it cannot cut.
func TestFigure1GoldenShards(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig1_golden.jsonl"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	for _, shards := range []int{1, 4} {
		opt := FastMLDOptions(10)
		opt.Seed = 42
		opt.Shards = shards
		opt.ShardWorkers = 8
		rec := obs.NewRecorder(nil)
		opt.Obs = rec
		f := buildHandover(opt, BidirectionalTunnel, 15*time.Second)
		if n := len(f.Kern.Regions()); n != 1 || f.Part != nil {
			t.Fatalf("shards=%d: fig1 built %d regions despite having no cuttable link", shards, n)
		}
		f.Run(40 * time.Second)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		diffTraces(t, fmt.Sprintf("shards=%d vs golden", shards), want, buf.Bytes())
	}
}

// TestShardCrashInsideSyncWindow schedules a router crash at a time that
// is not aligned to any sync-window boundary, on a sharded build where the
// crashed router sits in a different region than the multicast source.
// The kernel must force a barrier at the crash instant (quiescing only
// that region's timeline mid-window), the crash/restart instants must land
// in the merged trace at exactly the requested times, and the post-restart
// network must converge with zero invariant violations — the checker reads
// merged post-quiesce state, never a mid-window snapshot.
func TestShardCrashInsideSyncWindow(t *testing.T) {
	g, err := topo.FromSpec("tree", 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := chaosTune(DefaultOptions())
	opt.Seed = 3
	opt.Shards = 2
	opt.CoreLinkDelay = 2 * time.Millisecond
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	lans := g.LANs()
	var src, mem *scenario.Host
	f := scenario.Build(g, opt, func(f *scenario.Network) {
		src = f.AddHost("SRC", g.Links[lans[0]].Name, 0x5001)
		mem = f.AddHost("MEM", g.Links[lans[len(lans)-1]].Name, 0x9001)
	})
	if f.Kern == nil || f.Part == nil || f.Part.N < 2 {
		t.Fatal("tree-15 at shards=2 did not produce a multi-region build")
	}
	srcRegion := f.Links[g.Links[lans[0]].Name].Sched().Region()

	// A router in the other region than the source, but not the member's
	// access router: crashing it perturbs that region's timeline without
	// permanently severing the member.
	memAR := ""
	for _, ifc := range f.Links[g.Links[lans[len(lans)-1]].Name].Ifaces {
		if r, ok := f.Routers[ifc.Node.Name]; ok && r != nil {
			memAR = ifc.Node.Name
		}
	}
	victim := ""
	for _, rn := range f.RouterOrder() {
		if rn != memAR && f.Routers[rn].Node.Sched().Region() != srcRegion {
			victim = rn
			break
		}
	}
	if victim == "" {
		t.Fatal("no crashable router outside the source region")
	}

	svc := core.NewService(src.MN, src.MLD, LocalMembership)
	msvc := core.NewService(mem.MN, mem.MLD, LocalMembership)
	scenario.NewCBR(src.Node.Sched(), 1, 500*time.Millisecond, 64,
		func(p []byte) { svc.Send(Group, p) })
	msvc.Join(Group)

	// 1.5 ms past a whole second: with a 2 ms lookahead no window barrier
	// naturally lands there, so the action must split a window in two.
	crashAt := 20*time.Second + 1500*time.Microsecond
	restartAt := 40*time.Second + 500*time.Microsecond
	f.At(sim.Time(crashAt), func() { f.CrashRouter(victim) })
	f.At(sim.Time(restartAt), func() { f.RestartRouter(victim) })
	f.Run(150 * time.Second)

	rec.MergeShards()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for what, at := range map[string]time.Duration{"crash": crashAt, "restart": restartAt} {
		needle := fmt.Sprintf(`"t_ns":%d,`, at.Nanoseconds())
		name := fmt.Sprintf(`"name":%q`, what)
		found := false
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			if bytes.Contains(line, []byte(needle)) && bytes.Contains(line, []byte(name)) &&
				bytes.Contains(line, []byte(`"node":`+fmt.Sprintf("%q", victim))) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s instant for %s not recorded at t=%v", what, victim, at)
		}
	}

	e := check.Expectation{
		Source:  src.MN.HomeAddress,
		Group:   Group,
		Members: map[string]bool{"MEM": true},
	}
	if v := check.Converged(f, e); len(v) != 0 {
		t.Fatalf("post-restart network did not converge: %d violations, first: %s",
			len(v), v[0])
	}
}
