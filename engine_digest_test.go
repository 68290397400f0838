package mip6mcast

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/checkpoint"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/trace"
)

// engineDigestsPath holds one "<case> <sha256>" line per pinned trace.
var engineDigestsPath = filepath.Join("testdata", "engine_trace_digests.txt")

// digestCase is one pinned artifact: a name and the bytes it hashes.
type digestCase struct {
	name string
	run  func(t *testing.T) []byte
}

// fig1HandoverTrace runs the golden's Figure 1 handover (seed 42, R3
// moves to L6 at 15 s, 40 s horizon) under engine and approach, with an
// optional State Refresh interval, and returns its JSONL trace and the
// trace.Writer text of its transmissions (the lines mip6trace prints).
func fig1HandoverTrace(t *testing.T, engine string, approach Approach, refresh time.Duration) (jsonl, text []byte) {
	t.Helper()
	opt := FastMLDOptions(10)
	opt.Seed = 42
	opt.Engine = engine
	opt.PIM.StateRefreshInterval = refresh
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	var txt bytes.Buffer
	opt.OnNetwork = func(f *scenario.Network) { (&trace.Writer{W: &txt}).Attach(f.Net) }
	f := buildHandover(opt, approach, 15*time.Second)
	f.Run(40 * time.Second)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), txt.Bytes()
}

// fig1CheckpointArtifact captures the same handover run at t=20 s, after
// the first handover has settled, and returns the written artifact.
func fig1CheckpointArtifact(t *testing.T, engine string) []byte {
	t.Helper()
	opt := FastMLDOptions(10)
	opt.Seed = 42
	opt.Engine = engine
	f := buildHandover(opt, BidirectionalTunnel, 15*time.Second)
	f.Run(20 * time.Second)
	cp := checkpoint.Capture(f, checkpoint.Meta{Experiment: "fig1", Seed: 42, Engine: engine})
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosCellTrace runs one cell of the chaos matrix at seed 7 and returns
// the trace file the sweep writes for it (replay metadata line included).
func chaosCellTrace(t *testing.T, engine string, cell chaosCell) []byte {
	t.Helper()
	opt := chaosTune(DefaultOptions())
	opt.Seed = 7
	opt.Engine = engine
	out := runChaosOne(opt, LocalMembership, cell, t.TempDir())
	if out.TracePath == "" {
		t.Fatalf("chaos %s/%s wrote no trace", engine, cell.name)
	}
	b, err := os.ReadFile(out.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func engineDigestCases() []digestCase {
	var cases []digestCase
	for _, eng := range []string{"pimdm", "hpimdm"} {
		eng := eng
		for _, a := range []Approach{LocalMembership, BidirectionalTunnel} {
			a := a
			cases = append(cases, digestCase{"fig1/" + eng + "/" + a.String(), func(t *testing.T) []byte {
				jsonl, _ := fig1HandoverTrace(t, eng, a, 0)
				return jsonl
			}})
			cases = append(cases, digestCase{"fig1-text/" + eng + "/" + a.String(), func(t *testing.T) []byte {
				_, text := fig1HandoverTrace(t, eng, a, 0)
				return text
			}})
		}
		if eng == "pimdm" {
			cases = append(cases, digestCase{"fig1-state-refresh-10s/pimdm/bidir-tunnel", func(t *testing.T) []byte {
				jsonl, _ := fig1HandoverTrace(t, "pimdm", BidirectionalTunnel, 10*time.Second)
				return jsonl
			}})
		}
		for _, c := range chaosMatrix() {
			c := c
			cases = append(cases, digestCase{"chaos-seed7/" + eng + "/" + c.name, func(t *testing.T) []byte {
				return chaosCellTrace(t, eng, c)
			}})
		}
		cases = append(cases, digestCase{"shard-ba-r40-shards4/" + eng, func(t *testing.T) []byte {
			b, _ := shardSmokeTrace(t, eng, 4, 1, nil)
			return b
		}})
		cases = append(cases, digestCase{"checkpoint-fig1-20s/" + eng, func(t *testing.T) []byte {
			return fig1CheckpointArtifact(t, eng)
		}})
		cases = append(cases, digestCase{"fig1-4-groups/" + eng + "/tunneled-mld", func(t *testing.T) []byte {
			return multiGroupTrace(t, 42, eng, tunneledMLD, 3)
		}})
		cases = append(cases, digestCase{"fig1-4-groups/" + eng + "/local-membership", func(t *testing.T) []byte {
			return multiGroupTrace(t, 42, eng, LocalMembership, 3)
		}})
	}
	return cases
}

// TestEngineTraceDigests pins both multicast engines' trace bytes across
// commits: the Figure 1 handover under local membership and the
// bidirectional tunnel (the other approaches reproduce one of these two
// traces in that scenario), as JSONL and as decoded text lines, PIM-DM with State Refresh on, every cell of
// the chaos matrix at seed 7, the 4-shard ba-r40 smoke cell, a Figure 1
// checkpoint artifact, and R3 in four groups moving away, leaving one and
// returning home under tunneled MLD and under local membership. The worker-count determinism tests compare runs
// inside one binary; this table catches a change that shifts an engine's
// timeline the same way at every worker count.
//
// Regenerate (only for an intentional protocol or timeline change, with
// the reason written down) with:
// UPDATE_ENGINE_DIGESTS=1 go test -run TestEngineTraceDigests .
func TestEngineTraceDigests(t *testing.T) {
	cases := engineDigestCases()
	got := make(map[string]string, len(cases))
	traces := make(map[string][]byte, len(cases))
	for _, c := range cases {
		b := c.run(t)
		if len(b) == 0 {
			t.Fatalf("%s: empty artifact", c.name)
		}
		sum := sha256.Sum256(b)
		got[c.name] = hex.EncodeToString(sum[:])
		traces[c.name] = b
	}

	if os.Getenv("UPDATE_ENGINE_DIGESTS") != "" {
		var buf bytes.Buffer
		for _, c := range cases {
			fmt.Fprintf(&buf, "%s %s\n", c.name, got[c.name])
		}
		if err := os.WriteFile(engineDigestsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", engineDigestsPath, len(cases))
		return
	}

	want := readDigestTable(t, engineDigestsPath, "UPDATE_ENGINE_DIGESTS")
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, the test computes %d", engineDigestsPath, len(want), len(cases))
	}
	var dir string
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no pinned digest", c.name)
			continue
		}
		if w == got[c.name] {
			continue
		}
		if dir == "" {
			dir = t.TempDir()
		}
		path := filepath.Join(dir, strings.ReplaceAll(c.name, "/", "_")+".out")
		if err := os.WriteFile(path, traces[c.name], 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: digest %s, pinned %s; artifact written to %s", c.name, got[c.name], w, path)
	}
}

// readDigestTable reads a "<case> <sha256>" table; updateVar names the
// environment variable that regenerates it.
func readDigestTable(t *testing.T, path, updateVar string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing digest table (run with %s=1 to create): %v", updateVar, err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
