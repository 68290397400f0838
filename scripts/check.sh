#!/bin/sh
# Full pre-merge gate, in order: build and vet; gofmt; the test suite
# under the race detector; the mip6bench smoke; the allocation gates (the
# per-layer budgets and the macro-cell budgets of
# bench.TestMacroCellAllocBudget); every example; the fuzz smokes; and the
# worker-count determinism, http and mip6simd smokes. The race run
# matters because the experiment registry fans replicate timelines across
# goroutines (internal/exp.Sweep and the root package's workers=8
# determinism tests exercise it).
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
unformatted="$(git ls-files '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these tracked files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go test -race ./...

# Benchmark smoke: mip6bench is its own module (it builds against this
# checkout through a replace directive), so the root ./... never enters it.
# It compiles against the scenario surface (Network.Kern, Scheds, the
# kernel's window count) and its smoke test runs each workload's cells, so
# an API break shows up here instead of only in the benchmark pipeline.
(cd mip6bench && go test -race .)

# Allocation-regression gate. The alloc-budget tests carry //go:build !race
# (the race runtime's instrumented allocation counts are meaningless), so the
# race pass above skips them; run them in a plain pass here, in every
# package, so a gate in a new package runs without being listed.
go test -run 'AllocFree|AllocBudget' ./...

# Examples smoke: each example reads its numbers from an experiment's
# Result (type assertions on Result.Artifact, Stats, Render), which
# `go build` cannot check. Run every example once; a non-zero exit fails.
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done
echo "examples smoke: every example ran to completion"

# Decoder fuzz smoke: a short search from the seed packets (plain, every
# extension header, fragment, one and two tunnel layers). Decoding must
# never panic, must re-encode to a fixed point, must return the very packet
# a frame came from when decoded against it, also from a frame encoded some
# router hops on, with that hop count, and from a tunnel frame whose inner
# packet entered the tunnel some hops from its sender (never a hint that
# differs in any other field, the inner hop count included, though one that
# differs outside its extension headers lends the decode its Ext), and must
# keep nothing of the frame it parsed.
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/ipv6

# Mobile IPv6 option fuzz smoke: from the seed options (Binding Update with
# Unique ID, Alternate Care-of Address and the paper's Figure 5 Multicast
# Group List sub-option, a cleared and a split group list, Binding Ack,
# Binding Request, Home Address), parsing must never panic and parse ->
# marshal -> parse must be a fixed point.
go test -run '^$' -fuzz '^FuzzMobility$' -fuzztime 10s ./internal/ipv6

# ICMPv6 fuzz smoke: from the seed messages (RS, RA with one prefix and
# with more options than a RouterAdvert holds, MLD Query/Report/Done, PTB),
# the value parser must never panic, and any message it accepts must
# re-marshal to the bytes it came from.
go test -run '^$' -fuzz '^FuzzICMPv6$' -fuzztime 10s ./internal/icmpv6

# PIM fuzz smoke: from the seed messages (Hello with and without a
# Generation ID, Join/Prune, Graft, Graft-Ack, Assert, State Refresh, and
# HPIM-DM's Interest, NoInterest and DeclAck), parsing must never panic and
# parse -> marshal -> parse must be a fixed point.
go test -run '^$' -fuzz '^FuzzPIM$' -fuzztime 10s ./internal/pimdm

# Transmission-kind fuzz smoke: from the seed frames (a packet of every
# kind, and tunneled ones), a decoded frame must describe and account
# without a panic, Describe's kind must be Classify's or a refinement of
# it, and metrics.Split must put every byte of the frame in one class.
go test -run '^$' -fuzz '^FuzzDescribe$' -fuzztime 10s ./internal/trace

# Checkpoint artifact fuzz smoke: from the seed artifacts (a one-region
# checkpoint of a one-router line, a minimal artifact with every section,
# a wrong digest, a wrong format), Read must never panic and an artifact it
# accepts must come back byte-identical after write -> read -> write.
go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 10s ./internal/checkpoint

# On every exit, a failing curl or grep under set -e included, the EXIT
# trap stops the servers the smokes below start (httppid, daemonpid; each
# is cleared once its process has been reaped) and removes $tmp.
tmp="$(mktemp -d)"
httppid= daemonpid=
cleanup() {
    for pid in $httppid $daemonpid; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# Worker-count determinism smokes. smoke LABEL NAME EXPERIMENT FLAG
# [mip6sim flags...] runs one experiment at a fixed seed through the race
# binary twice, with FLAG (-workers, or -shard-workers for a sharded cell)
# at 1 and at 8, into $tmp/NAME-1 and $tmp/NAME-8. The per-timeline JSONL
# traces, the sampled telemetry series (-telemetry-out writes the
# master-seed cell's series into the same directory, so the recursive diff
# covers both) and stdout must be byte-identical, and every row of the
# rendered table must report zero invariant violations (its column 2). The
# race detector matters because the worker fan-out is exactly what could
# perturb a timeline: any diff means a nondeterministic draw or a
# cross-timeline (or cross-region) data race.
go build -race -o "$tmp/mip6sim-race" ./cmd/mip6sim
smoke() {
    label=$1 dir=$tmp/$2 experiment=$3 flag=$4
    shift 4
    for n in 1 8; do
        "$tmp/mip6sim-race" -experiment "$experiment" "$@" -replicates 1 -seed 7 \
            "$flag" "$n" -trace-out "$dir-$n" -telemetry-out "$dir-$n" > "$dir-$n.out"
    done
    test -s "$dir-1/$experiment.telemetry.csv" # sampling actually ran
    diff -r "$dir-1" "$dir-8"
    diff "$dir-1.out" "$dir-8.out"
    if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$dir-1.out"; then
        echo "$label: $flag 1 and 8 traces byte-identical, 0 violations"
    else
        echo "$label: invariant violations reported:" >&2
        cat "$dir-1.out" >&2
        exit 1
    fi
}

# Chaos: the full fault-injection matrix, under the default engine and
# under the hard-state engine (engine-tagged trace files).
smoke "chaos smoke" chaos chaos -workers
smoke "chaos smoke (hpimdm)" chaos-hpimdm chaos -workers -topo engine=hpimdm

# Chaos under the hierarchical MLD-proxy approach (#5): edge routers A
# and E run the mldproxy engine instead of PIM. Trace files carry the
# "proxy-hierarchy-" approach tag, so they never collide with the
# local-membership smokes above.
smoke "chaos smoke (mldproxy)" chaos-proxy chaos -workers -topo approach=proxy
test -s "$tmp/chaos-proxy-1/chaos-proxy-hierarchy-baseline-seed7.jsonl" # approach tag present

# Scale under the proxy approach: the proxy-aware invariant checker
# (check.Converged walking mldproxy trees) must report zero violations on
# every family — including grids, where the depth-2 peel finds no pendant
# routers and the approach degenerates honestly to local membership.
smoke "scale smoke (mldproxy)" scale-proxy scale -workers \
    -topo family=fig1+tree+grid,routers=4,mns=8,approach=proxy

# Scale: the fig1, tree and grid cells of the procedural-topology sweep
# under both engines.
for eng in pimdm hpimdm; do
    smoke "scale smoke ($eng)" "scale-$eng" scale -workers \
        -topo "family=fig1+tree+grid,routers=4,mns=8,engine=$eng"
done

# Sharded kernel: a 4-region ba-r40 cell must emit byte-identical traces
# and telemetry whether its regions run on one goroutine or eight; under
# the race detector a cross-region data race or a merge-order bug is also a
# crash. (The in-suite TestShardTraceWorkerInvariance covers both engines
# at shards=2,4; this exercises the same contract end-to-end through the
# CLI flags.)
smoke "shard smoke" shard scale -shard-workers \
    -topo family=ba,routers=40,mns=80 -shards 4 -core-delay 2ms

# Live-surface smoke: run one experiment with -http on an ephemeral port,
# scrape /metrics (must be non-empty and Prometheus-shaped, with the per-tag
# series a completed cell contributes), read /progress to its closing
# "run_complete":true line, then SIGTERM and require a clean exit —
# startup, the scrape path, the progress feed, and the graceful shutdown
# path (signal cuts the linger, server drains, exit 0). Sweep cells and
# exp.ForEach variants both report Progress, which feeds /metrics and
# /progress (mip6sim -experiment f1 -progress prints two cells).
go build -o "$tmp/mip6sim" ./cmd/mip6sim
"$tmp/mip6sim" -experiment scale -topo family=fig1,routers=4,mns=4 \
    -replicates 1 -http 127.0.0.1:0 -http-linger 60s \
    > "$tmp/http.out" 2> "$tmp/http.err" &
httppid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|^serving http://\([^/]*\)/.*|\1|p' "$tmp/http.err")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "http smoke: server never announced its address" >&2
    cat "$tmp/http.err" >&2
    exit 1
fi
# Retry until the scrape shows a completed cell's per-tag series: the
# server is up before the first timeline finishes, so an early scrape is
# valid but sparse.
scraped=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt" 2>/dev/null &&
        grep -q '^mip6sim_events_dispatched_total ' "$tmp/metrics.txt" &&
        grep -q '^mip6sim_tag_wall_seconds_total{tag=' "$tmp/metrics.txt"; then
        scraped=1
        break
    fi
    sleep 0.1
done
if [ -z "$scraped" ]; then
    echo "http smoke: /metrics never served the expected series" >&2
    cat "$tmp/metrics.txt" >&2 2>/dev/null || true
    exit 1
fi
# /progress replays every completed cell, then streams the rest and ends
# with the run_complete line once the run finishes (before the linger).
if ! curl -fsS --max-time 120 "http://$addr/progress" > "$tmp/progress.ndjson" ||
    ! grep -q '"events":' "$tmp/progress.ndjson" ||
    ! tail -n 1 "$tmp/progress.ndjson" | grep -q '"run_complete":true'; then
    echo "http smoke: /progress did not end with a run_complete line:" >&2
    cat "$tmp/progress.ndjson" >&2 2>/dev/null || true
    exit 1
fi
pid=$httppid httppid=
kill -TERM "$pid"
if wait "$pid"; then
    echo "http smoke: /metrics scraped, /progress read to run_complete, clean shutdown on SIGTERM"
else
    echo "http smoke: mip6sim exited non-zero after SIGTERM" >&2
    exit 1
fi

# mip6simd smoke: start the sweep daemon, submit the same spec twice (the
# second submission must be served from the cache), scrape the daemon's
# /metrics and pprof (the live surface mip6sim -http mounts too), warm a
# chaos checkpoint, fork a cell from it, and download the artifact. Then
# restart the daemon on the same cache dir: the spec must still be a cache
# hit (disk persistence), and re-warming the same seed must produce a
# byte-identical checkpoint artifact — the cross-process form of the
# checkpoint/resume determinism the in-suite tests prove in-process.
go build -o "$tmp/mip6simd" ./cmd/mip6simd
spec='{"experiment":"s44","params":{"tquery":[5]},"seed":7,"replicates":1}'
start_daemon() {
    "$tmp/mip6simd" -addr 127.0.0.1:0 -cache-dir "$tmp/simd-cache" \
        2> "$tmp/simd.err" &
    daemonpid=$!
    daddr=""
    for _ in $(seq 1 100); do
        daddr="$(sed -n 's|^mip6simd serving http://\([^/]*\)/.*|\1|p' "$tmp/simd.err")"
        [ -n "$daddr" ] && break
        sleep 0.1
    done
    if [ -z "$daddr" ]; then
        echo "mip6simd smoke: daemon never announced its address" >&2
        cat "$tmp/simd.err" >&2
        exit 1
    fi
}
stop_daemon() {
    pid=$daemonpid daemonpid=
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "mip6simd smoke: daemon exited non-zero after SIGTERM" >&2
        exit 1
    fi
}
start_daemon
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run1.json"
runid="$(sed -n 's/.*"id": "\(r[0-9]*\)".*/\1/p' "$tmp/simd-run1.json")"
# Wait for the run to finish, then resubmit: the second submission must be
# served from the cache without running.
for _ in $(seq 1 300); do
    curl -fsS "http://$daddr/runs/$runid" > "$tmp/simd-run1-done.json"
    grep -q '"status": "running"' "$tmp/simd-run1-done.json" || break
    sleep 0.1
done
grep -q '"status": "done"' "$tmp/simd-run1-done.json" || {
    echo "mip6simd smoke: first run never completed:" >&2
    cat "$tmp/simd-run1-done.json" >&2
    exit 1
}
curl -fsS "http://$daddr/metrics" > "$tmp/simd-metrics.txt" || true
simdcells="$(sed -n 's/^mip6sim_cells_completed_total \([0-9]*\)$/\1/p' "$tmp/simd-metrics.txt")"
if [ -z "$simdcells" ] || [ "$simdcells" -lt 1 ]; then
    echo "mip6simd smoke: /metrics counts no completed cell after the first run:" >&2
    cat "$tmp/simd-metrics.txt" >&2
    exit 1
fi
if ! curl -fsS -o /dev/null "http://$daddr/debug/pprof/"; then
    echo "mip6simd smoke: /debug/pprof/ did not answer 200" >&2
    exit 1
fi
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run2.json"
grep -q '"cached": true' "$tmp/simd-run2.json" || {
    echo "mip6simd smoke: resubmitted spec was not served from the cache:" >&2
    cat "$tmp/simd-run2.json" >&2
    exit 1
}
curl -fsS -X POST -d '{"seed":9}' "http://$daddr/checkpoints" > "$tmp/simd-cp.json"
cpid="$(sed -n 's/.*"id": "\(cp[0-9]*\)".*/\1/p' "$tmp/simd-cp.json")"
curl -fsS "http://$daddr/checkpoints/$cpid" > "$tmp/simd-cp-a.json"
curl -fsS -X POST -d '{"cells":["baseline"]}' \
    "http://$daddr/checkpoints/$cpid/fork" > "$tmp/simd-fork.json"
if ! grep -q '"outcome"' "$tmp/simd-fork.json" ||
    grep -q '"error"' "$tmp/simd-fork.json" ||
    grep -q '"Violations": \["' "$tmp/simd-fork.json"; then
    echo "mip6simd smoke: forked baseline cell reported violations or failed:" >&2
    cat "$tmp/simd-fork.json" >&2
    exit 1
fi
stop_daemon
start_daemon
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run3.json"
grep -q '"cached": true' "$tmp/simd-run3.json" || {
    echo "mip6simd smoke: restarted daemon missed the on-disk cache:" >&2
    cat "$tmp/simd-run3.json" >&2
    exit 1
}
curl -fsS -X POST -d '{"seed":9}' "http://$daddr/checkpoints" > "$tmp/simd-cp2.json"
cpid2="$(sed -n 's/.*"id": "\(cp[0-9]*\)".*/\1/p' "$tmp/simd-cp2.json")"
curl -fsS "http://$daddr/checkpoints/$cpid2" > "$tmp/simd-cp-b.json"
diff "$tmp/simd-cp-a.json" "$tmp/simd-cp-b.json" || {
    echo "mip6simd smoke: re-warmed checkpoint artifact differs across processes" >&2
    exit 1
}
stop_daemon
echo "mip6simd smoke: /metrics and pprof served, cache hit, disk persistence across restart, fork clean, checkpoint artifact byte-stable"
