GO ?= go

.PHONY: all build vet test race check bench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race run exercises the sweep engine's parallel fan-out: the root
# package's determinism tests run every registered experiment with
# workers=8, and internal/exp's tests drive Sweep directly.
race:
	$(GO) test -race ./...

# The full pre-merge gate, the one CI runs: build, vet, gofmt, the race
# suite, the alloc gates, the examples and the fuzz, determinism, http and
# daemon smokes.
check:
	./scripts/check.sh

# Benchmark evidence for the data-plane fast path: the Figure 1 macro run
# (events/sec, B/op, allocs/op end to end), the PR5 procedural-topology
# macro cells (100-router grid, 500-router Barabási–Albert with 2000
# mobile nodes), link delivery and multicast fan-out micro-benches,
# scheduler dispatch cost, the PR2 observability benches, and the PR4
# impairment-hook cost (the /off case must match BenchmarkMulticastFanout's
# allocs/op exactly — the hooks are free when Impair == nil), the PR6
# engine head-to-head (one scale cell per registered multicast engine, with
# PIM control KB and convergence time as reported metrics), and the PR7
# telemetry cells: BenchmarkTelemetryOverhead prices the sampler set on the
# Figure 1 macro run (/off must match BenchmarkFigure1Macro) and
# BenchmarkHandleOps prices the metric handles themselves (the nil-registry
# case must stay 0 allocs/op), and the PR9 checkpoint cells:
# BenchmarkRampAmortization prices the chaos warm-prefix fork paths (cold vs
# live-fork vs replay-fork — the live-fork delta is the ramp the daemon's
# checkpoint pool amortizes away). The benchmark lines go to stdout;
# baseline numbers are documented in EXPERIMENTS.md.
# BenchmarkTimerReset prices re-arming a running timer (its old expiry
# leaves the queue and a pooled event takes its place) and
# BenchmarkSchedulerChurn prices Schedule+Step at a steady queue depth of
# 512-1,024 events. TestTimerResetAllocFree, not this target, gates timer
# re-arming at 0 allocs/op. The unicast routing layer has three:
# BenchmarkRecompute64 (SPF over a 64-router chain), BenchmarkNextHop (one
# cached lookup) and BenchmarkRPFLookup (RPF checks across every table of
# a 500-router Barabási–Albert network); TestRecomputeAllocBudget gates
# SPF allocation. BenchmarkEngineForward/{hpimdm,pimdm} prices one
# engine's data path: a single ForwardMulticast on router D of a converged
# Figure 1 network, replicating onto two links (the (S,G) lookup, expiry
# re-arm, outgoing-interface decision and both link sends; delivery of the
# copies is not timed).
# TestMacroCellAllocBudget, not this target, gates the Figure 1 and r100
# scale cells' event, frame and allocation counts.
# The macro cells get a time-based -benchtime so the multi-second runs
# (ba-r500 is ~7 s/op) average several iterations per result line: a
# single iteration swings ±20% with machine state.
bench:
	$(GO) test -run '^$$' -benchmem -benchtime 15s \
		-bench 'BenchmarkFigure1Macro|BenchmarkScaleTopology|BenchmarkShardedTimeline|BenchmarkEngineComparison|BenchmarkTelemetryOverhead' \
		./bench
	$(GO) test -run '^$$' -benchmem \
		-bench 'BenchmarkLinkDelivery|BenchmarkUnicastForward|BenchmarkTunnelRoundTrip|BenchmarkMulticastFanout|BenchmarkImpairmentFanout|BenchmarkFragmentationPath|BenchmarkStep|BenchmarkTimerReset|BenchmarkSchedulerChurn|BenchmarkRecompute64|BenchmarkNextHop|BenchmarkRPFLookup|BenchmarkEngineForward|BenchmarkNilRecorderHooks|BenchmarkObsOverhead|BenchmarkSteadyStateForwarding|BenchmarkHandleOps|BenchmarkRampAmortization|BenchmarkApproachComparison' \
		./internal/netem ./internal/ipv6 ./internal/sim ./internal/routing ./internal/obs ./internal/telemetry ./bench .
