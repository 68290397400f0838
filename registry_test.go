package mip6mcast

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/obs"
)

// Every paper artifact must be registered, in the canonical order.
func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{"f1", "f2", "f3", "f4", "t1", "s44", "s431", "s432", "smg", "sld", "smtu", "chaos", "scale"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("registration order %v, want %v", got, want)
		}
		e, ok := GetExperiment(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		if e.Desc == "" {
			t.Errorf("experiment %q has no description", name)
		}
	}
}

// detParams shrinks each experiment to a fast-but-representative
// configuration so the worker-count determinism check stays affordable.
// Experiments without an entry run with their declared defaults.
var detParams = map[string]exp.Params{
	"s44":   {"tquery": []int{10}},
	"s431":  {"moves": []int{2}},
	"s432":  {"n": []int{2}},
	"smg":   {"groups": []int{4}},
	"sld":   {"depths": []int{2}},
	"smtu":  {"payloads": []int{1413}, "losses": []float64{0.05}},
	"scale": {"families": "tree+grid", "routers": []int{4}},
}

// experimentDigestsPath holds one "<experiment> <sha256>" line per
// registered experiment: the digest of its workers=1 table at seed 7,
// two replicates and detParams.
var experimentDigestsPath = filepath.Join("testdata", "experiment_render_digests.txt")

// Identical seeds must yield byte-identical tables regardless of worker
// parallelism: timelines only share read-only inputs, and replicate seeds
// derive deterministically from the master seed.
//
// The workers=1 table is also pinned across commits against
// experimentDigestsPath, on amd64 only: that is where the table was
// captured, and Go may fuse multiply-adds on other architectures.
// Regenerate (only for an intentional change to an experiment's numbers,
// with the reason written down) with:
// UPDATE_EXPERIMENT_DIGESTS=1 go test -run TestExperimentsDeterministicAcrossWorkers .
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	update := os.Getenv("UPDATE_EXPERIMENT_DIGESTS") != ""
	pinned := !update && runtime.GOARCH == "amd64"
	var want map[string]string
	if pinned {
		want = readDigestTable(t, experimentDigestsPath, "UPDATE_EXPERIMENT_DIGESTS")
		if len(want) != len(Experiments()) {
			t.Errorf("%s has %d digests for %d experiments", experimentDigestsPath, len(want), len(Experiments()))
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	if update {
		// Cleanup runs after every parallel subtest has finished.
		t.Cleanup(func() {
			var buf bytes.Buffer
			for _, name := range Experiments() {
				fmt.Fprintf(&buf, "%s %s\n", name, got[name])
			}
			if err := os.WriteFile(experimentDigestsPath, buf.Bytes(), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			render := func(ctx ExpContext) string {
				ctx.Opt = DefaultOptions()
				ctx.Opt.Seed = 7
				ctx.Replicates = 2
				res, err := RunExperiment(name, ctx, detParams[name])
				if err != nil {
					t.Fatalf("workers=%d: %v", ctx.Workers, err)
				}
				return res.Render()
			}
			// The serial run also records cell (0,0) and reports progress,
			// as mip6sim -trace-out -progress does: every cell must
			// dispatch events, the recorded cell must record some, and
			// neither may change the table.
			var cells []exp.CellStats
			rec := obs.NewRecorder(nil)
			serial := render(ExpContext{
				Workers:  1,
				Progress: func(cs exp.CellStats) { cells = append(cells, cs) },
				Recorder: func(pt, rep int) *obs.Recorder {
					if pt == 0 && rep == 0 {
						return rec
					}
					return nil
				},
			})
			parallel := render(ExpContext{Workers: 8})
			if len(cells) == 0 {
				t.Error("no cell reported progress")
			}
			for _, cs := range cells {
				if cs.Sched.Dispatched == 0 {
					t.Errorf("cell %q (point %d, replicate %d) dispatched no events", cs.Label, cs.Point, cs.Replicate)
				}
			}
			if rec.Len() == 0 {
				t.Error("cell (0,0) recorded no events")
			}
			if serial != parallel {
				t.Errorf("workers=1 and workers=8 tables differ:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
			}
			if !strings.Contains(serial, "\n") {
				t.Errorf("rendered table looks empty: %q", serial)
			}
			sum := sha256.Sum256([]byte(serial))
			digest := hex.EncodeToString(sum[:])
			mu.Lock()
			got[name] = digest
			mu.Unlock()
			if pinned && want[name] != digest {
				t.Errorf("workers=1 table digest %s, pinned %s:\n%s", digest, want[name], serial)
			}
		})
	}
}

// Replicate 0 must reuse the master seed, so a single-replicate sweep
// reproduces the corresponding one-shot run exactly.
func TestSingleReplicateMatchesOneShot(t *testing.T) {
	opt := DefaultOptions()
	opt.Seed = 3

	res, err := RunExperiment("s432", ExpContext{Opt: opt, Replicates: 1}, exp.Params{"n": []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	direct := measureS432Point(opt, 2)
	viaSweep := res.Stats[0].Raw[0].(S432Point)
	if direct != viaSweep {
		t.Errorf("single-replicate sweep point %+v != one-shot %+v", viaSweep, direct)
	}
	if got := res.Stats[0].Mean("tunnel(B/dgram)"); got != direct.TunnelBytesPerDgram {
		t.Errorf("stats mean %v != one-shot %v", got, direct.TunnelBytesPerDgram)
	}
}
