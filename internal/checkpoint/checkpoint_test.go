package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/scenario"
)

func buildFig1(seed int64, until time.Duration) *scenario.Network {
	opt := scenario.DefaultOptions()
	opt.Seed = seed
	f := scenario.NewFigure1(opt)
	f.Run(until)
	return f
}

// A checkpoint captured at T verifies against an independently rebuilt
// timeline run to the same T, and Restore adopts it.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	f := buildFig1(42, 30*time.Second)
	meta := Meta{Experiment: "fig1", Seed: 42, Engine: "pimdm"}
	cp := Capture(f, meta)
	if cp.Time != f.Now() {
		t.Fatalf("checkpoint time %v, network at %v", cp.Time, f.Now())
	}
	if len(cp.Regions) != 1 || len(cp.Engines) == 0 || len(cp.Links) == 0 {
		t.Fatalf("checkpoint missing state: %d regions, %d engines, %d links",
			len(cp.Regions), len(cp.Engines), len(cp.Links))
	}

	restored, err := Restore(cp, func() (*scenario.Network, error) {
		return buildFig1(42, 30*time.Second), nil
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Now() != cp.Time {
		t.Fatalf("restored network at %v, want %v", restored.Now(), cp.Time)
	}
}

// A rebuild with the wrong seed must fail verification with a
// descriptive error, not silently produce a divergent tail.
func TestRestoreDetectsDivergentRebuild(t *testing.T) {
	cp := Capture(buildFig1(42, 30*time.Second), Meta{Experiment: "fig1", Seed: 42})
	_, err := Restore(cp, func() (*scenario.Network, error) {
		return buildFig1(43, 30*time.Second), nil
	})
	if err == nil {
		t.Fatal("Restore accepted a rebuild with the wrong seed")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence error not descriptive: %v", err)
	}
}

// A rebuild stopped at the wrong time must fail verification.
func TestRestoreDetectsWrongTime(t *testing.T) {
	cp := Capture(buildFig1(42, 30*time.Second), Meta{Seed: 42})
	_, err := Restore(cp, func() (*scenario.Network, error) {
		return buildFig1(42, 31*time.Second), nil
	})
	if err == nil || !strings.Contains(err.Error(), "time diverged") {
		t.Fatalf("want virtual-time divergence error, got %v", err)
	}
}

// Write/Read round-trips the artifact; tampering breaks the digest.
func TestArtifactRoundTripAndDigest(t *testing.T) {
	cp := Capture(buildFig1(7, 20*time.Second), Meta{Experiment: "fig1", Seed: 7})
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if back.Digest != cp.Digest || back.Time != cp.Time {
		t.Fatalf("round trip changed artifact: digest %s vs %s", back.Digest, cp.Digest)
	}

	tampered := strings.Replace(buf.String(), `"seed": 7`, `"seed": 8`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper target not found in artifact")
	}
	if _, err := Read(strings.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered artifact not rejected: %v", err)
	}
}

// Save and Load round-trip an artifact through a file: the loaded
// checkpoint keeps its digest and still verifies against the network it
// was captured from, and a file with one byte flipped fails Load on the
// digest.
func TestSaveLoadRoundTrip(t *testing.T) {
	f := buildFig1(3, 5*time.Second)
	cp := Capture(f, Meta{Experiment: "fig1", Seed: 3})
	path := filepath.Join(t.TempDir(), "warm.json")
	if err := cp.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Digest != cp.Digest {
		t.Fatalf("Load gives digest %s, Save wrote %s", back.Digest, cp.Digest)
	}
	if err := Verify(f, back); err != nil {
		t.Fatalf("loaded checkpoint does not verify against its network: %v", err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"fig1"`))
	if i < 0 {
		t.Fatal("experiment name not found in the artifact")
	}
	b[i+1] ^= 0x20 // "fig1" becomes "Fig1": still JSON, no longer the digested artifact
	bad := filepath.Join(t.TempDir(), "flipped.json")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("Load of a flipped byte: want the digest error, got %v", err)
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	a := Meta{Experiment: "chaos", Params: map[string]string{"b": "2", "a": "1"}, Seed: 9, Engine: "pimdm"}
	b := Meta{Experiment: "chaos", Params: map[string]string{"a": "1", "b": "2"}, Seed: 9, Engine: "pimdm"}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("cache key depends on param order: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	if a.CacheKey() == (Meta{Experiment: "chaos", Params: map[string]string{"a": "1", "b": "2"}, Seed: 10, Engine: "pimdm"}).CacheKey() {
		t.Fatal("cache key ignores seed")
	}
}
