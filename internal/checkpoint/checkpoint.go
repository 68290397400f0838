// Package checkpoint implements versioned timeline checkpoints: a
// deterministic snapshot of a running simulation's virtual time and all
// live state — scheduler queues and RNG stream positions per region,
// link/impairment/channel state, multicast engine state for every
// router (engine.MulticastEngine.Checkpoint, checked on restore by
// engine.VerifyCheckpoint), and the MLD/NDP/Mobile-IPv6 binding state.
//
// The restore model is replay-based, verify-and-adopt: closures (timer
// callbacks, in-flight deliveries) are never serialized. A checkpoint
// is restored by re-executing the run's deterministic construction and
// driver program up to the checkpoint's virtual time — after which the
// rebuilt timeline necessarily holds the same state, because the whole
// system is a pure function of (spec, seed) — and then verifying the
// rebuilt state against the snapshot field by field. Verification is
// what makes the checkpoint more than a cache key: it catches spec
// drift, binary drift, and non-deterministic rebuilds with a
// descriptive error instead of a silently divergent tail. Because the
// rebuilt run re-executes the identical event stream from time zero,
// its trace is byte-identical to the uninterrupted run's — from the
// beginning, and therefore in particular from the checkpoint onward —
// at any shard or worker count.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"sort"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// FormatVersion is the current checkpoint artifact format. Version 1 is
// the replay-verify format: it records declarative state for
// verification, not serialized closures. A future native-reload format
// would bump this.
const FormatVersion = 1

// Meta identifies the run a checkpoint belongs to — the same triple the
// result cache keys on, so a checkpoint can only ever be restored into
// a rebuild of the identical spec.
type Meta struct {
	Experiment string            `json:"experiment,omitempty"`
	Params     map[string]string `json:"params,omitempty"`
	Seed       int64             `json:"seed"`
	Shards     int               `json:"shards,omitempty"`
	Engine     string            `json:"engine,omitempty"`
}

// CacheKey renders the meta as the canonical cache key:
// experiment|k=v|...|seed=N|engine=E|shards=S with params sorted by
// key. mip6simd keys both its result cache and checkpoint store on it.
func (m Meta) CacheKey() string {
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key := m.Experiment
	for _, k := range keys {
		key += "|" + k + "=" + m.Params[k]
	}
	key += fmt.Sprintf("|seed=%d", m.Seed)
	if m.Engine != "" {
		key += "|engine=" + m.Engine
	}
	if m.Shards > 1 {
		key += fmt.Sprintf("|shards=%d", m.Shards)
	}
	return key
}

// RegionState is one region scheduler's position: how many events it
// has executed, the next event sequence number, the position of every
// random stream, and the pending event queue as declarative
// (time, seq, tag) specs. An uncut network has exactly one region.
type RegionState struct {
	Region     int                `json:"region"`
	Processed  uint64             `json:"processed"`
	SeqCounter uint64             `json:"seq_counter"`
	Streams    []sim.StreamPos    `json:"streams,omitempty"`
	Pending    []sim.PendingEvent `json:"pending,omitempty"`
}

// Checkpoint is the versioned snapshot artifact.
type Checkpoint struct {
	Format  int           `json:"format"`
	Meta    Meta          `json:"meta"`
	Time    sim.Time      `json:"t_ns"`
	Regions []RegionState `json:"regions"`
	// Links holds every link half's state in construction order
	// (split-link far halves follow their primary).
	Links []netem.LinkState `json:"links,omitempty"`
	// Engines holds every router's engine snapshot in construction order.
	Engines []engine.EngineCheckpoint `json:"engines,omitempty"`
	// MLD maps router name to its membership-state digest.
	MLD map[string][]string `json:"mld,omitempty"`
	// HomeAgents maps router name to its binding-cache digests, each line
	// prefixed with the home link it serves.
	HomeAgents map[string][]string `json:"home_agents,omitempty"`
	// Mobiles maps host name to its registration-state digest.
	Mobiles map[string]string `json:"mobiles,omitempty"`
	// Digest is the FNV-1a 64 hash of the artifact's canonical JSON with
	// this field blank — a cheap end-to-end integrity check.
	Digest string `json:"digest,omitempty"`
}

// Capture snapshots the network's complete live state at its current
// virtual time. On a sharded run, call only between RunUntil calls
// (i.e. at a kernel barrier), when every region clock is equal and no
// window is executing.
func Capture(f *scenario.Network, meta Meta) *Checkpoint {
	cp := &Checkpoint{
		Format:     FormatVersion,
		Meta:       meta,
		Time:       f.Now(),
		MLD:        map[string][]string{},
		HomeAgents: map[string][]string{},
		Mobiles:    map[string]string{},
	}
	for i, s := range f.Scheds() {
		cp.Regions = append(cp.Regions, RegionState{
			Region:     i,
			Processed:  s.Processed(),
			SeqCounter: s.SeqCounter(),
			Streams:    s.StreamPositions(),
			Pending:    s.PendingEvents(),
		})
	}
	for _, name := range f.LinkOrder() {
		l := f.Links[name]
		cp.Links = append(cp.Links, l.CheckpointState())
		if p := l.Peer(); p != nil {
			cp.Links = append(cp.Links, p.CheckpointState())
		}
	}
	for _, name := range f.RouterOrder() {
		r := f.Routers[name]
		if r.Engine != nil {
			cp.Engines = append(cp.Engines, r.Engine.Checkpoint())
		}
		if r.MLD != nil {
			cp.MLD[name] = r.MLD.Snapshot()
		}
		var has []string
		for _, ln := range r.HALinks() {
			for _, line := range r.HAs[ln].Snapshot() {
				has = append(has, ln+" "+line)
			}
		}
		if len(has) > 0 {
			cp.HomeAgents[name] = has
		}
	}
	hosts := make([]string, 0, len(f.Hosts))
	for name := range f.Hosts {
		hosts = append(hosts, name)
	}
	sort.Strings(hosts)
	for _, name := range hosts {
		if mn := f.Hosts[name].MN; mn != nil {
			cp.Mobiles[name] = mn.Snapshot()
		}
	}
	cp.Digest = cp.ComputeDigest()
	return cp
}

// ComputeDigest hashes the artifact's canonical JSON (Digest blanked)
// with FNV-1a 64.
func (cp *Checkpoint) ComputeDigest() string {
	c := *cp
	c.Digest = ""
	data, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("checkpoint: digest marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Verify recaptures the network's state and compares it against cp
// field by field, reporting the first divergence as a descriptive error
// (nil when identical). It is the integrity half of the restore
// contract: Restore calls it after the rebuild.
func Verify(f *scenario.Network, cp *Checkpoint) error {
	if cp.Format != FormatVersion {
		return fmt.Errorf("checkpoint: format %d not supported (this build reads format %d)", cp.Format, FormatVersion)
	}
	if cp.Digest != "" {
		if got := cp.ComputeDigest(); got != cp.Digest {
			return fmt.Errorf("checkpoint: artifact digest mismatch: recorded %s, computed %s (corrupt or hand-edited artifact)", cp.Digest, got)
		}
	}
	got := Capture(f, cp.Meta)
	if got.Time != cp.Time {
		return fmt.Errorf("checkpoint: virtual time diverged: checkpoint at %v, timeline at %v", cp.Time, got.Time)
	}
	if len(got.Regions) != len(cp.Regions) {
		return fmt.Errorf("checkpoint: region count diverged: checkpoint has %d, timeline has %d (shards mismatch?)", len(cp.Regions), len(got.Regions))
	}
	for i := range cp.Regions {
		if err := verifyRegion(cp.Regions[i], got.Regions[i]); err != nil {
			return err
		}
	}
	if len(got.Links) != len(cp.Links) {
		return fmt.Errorf("checkpoint: link count diverged: checkpoint has %d, timeline has %d", len(cp.Links), len(got.Links))
	}
	for i := range cp.Links {
		if !linkStateEqual(cp.Links[i], got.Links[i]) {
			return fmt.Errorf("checkpoint: link %s state diverged:\n  checkpoint: %+v\n  rebuilt:    %+v", cp.Links[i].Name, cp.Links[i], got.Links[i])
		}
	}
	if len(got.Engines) != len(cp.Engines) {
		return fmt.Errorf("checkpoint: engine count diverged: checkpoint has %d, timeline has %d", len(cp.Engines), len(got.Engines))
	}
	for i := range cp.Engines {
		if err := engine.VerifyCheckpoint(cp.Engines[i], got.Engines[i]); err != nil {
			return err
		}
	}
	if err := verifyDigests("MLD state", cp.MLD, got.MLD); err != nil {
		return err
	}
	if err := verifyDigests("home-agent bindings", cp.HomeAgents, got.HomeAgents); err != nil {
		return err
	}
	for name, want := range cp.Mobiles {
		if g, ok := got.Mobiles[name]; !ok || g != want {
			return fmt.Errorf("checkpoint: mobile node %s diverged:\n  checkpoint: %s\n  rebuilt:    %s", name, want, g)
		}
	}
	if len(got.Mobiles) != len(cp.Mobiles) {
		return fmt.Errorf("checkpoint: mobile node count diverged: checkpoint has %d, timeline has %d", len(cp.Mobiles), len(got.Mobiles))
	}
	return nil
}

func verifyRegion(want, got RegionState) error {
	if want.Processed != got.Processed {
		return fmt.Errorf("checkpoint: region %d processed-event count diverged: checkpoint %d, rebuilt %d", want.Region, want.Processed, got.Processed)
	}
	if want.SeqCounter != got.SeqCounter {
		return fmt.Errorf("checkpoint: region %d event sequence counter diverged: checkpoint %d, rebuilt %d", want.Region, want.SeqCounter, got.SeqCounter)
	}
	if len(want.Streams) != len(got.Streams) {
		return fmt.Errorf("checkpoint: region %d stream set diverged: checkpoint %v, rebuilt %v", want.Region, want.Streams, got.Streams)
	}
	for i := range want.Streams {
		if want.Streams[i] != got.Streams[i] {
			return fmt.Errorf("checkpoint: region %d random stream %q position diverged: checkpoint %d draws, rebuilt %d draws",
				want.Region, want.Streams[i].Name, want.Streams[i].Draws, got.Streams[i].Draws)
		}
	}
	if len(want.Pending) != len(got.Pending) {
		return fmt.Errorf("checkpoint: region %d pending event count diverged: checkpoint %d, rebuilt %d", want.Region, len(want.Pending), len(got.Pending))
	}
	for i := range want.Pending {
		if want.Pending[i] != got.Pending[i] {
			return fmt.Errorf("checkpoint: region %d pending event %d diverged:\n  checkpoint: %+v\n  rebuilt:    %+v", want.Region, i, want.Pending[i], got.Pending[i])
		}
	}
	return nil
}

func linkStateEqual(a, b netem.LinkState) bool {
	return reflect.DeepEqual(a, b)
}

func verifyDigests(what string, want, got map[string][]string) error {
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			return fmt.Errorf("checkpoint: %s on %s diverged:\n  checkpoint: %v\n  rebuilt:    %v", what, name, w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Errorf("checkpoint: %s on %s diverged at line %d:\n  checkpoint: %s\n  rebuilt:    %s", what, name, i, w[i], g[i])
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("checkpoint: %s router set diverged: checkpoint has %d routers, timeline has %d", what, len(want), len(got))
	}
	return nil
}

// Restore rebuilds a timeline from cp: rebuild must re-execute the
// run's deterministic construction and driver program up to cp.Time
// (and no further), after which the returned network is verified
// against the snapshot. A verification failure means the rebuild
// diverged — wrong spec, wrong seed, wrong binary — and the restored
// timeline must not be trusted.
func Restore(cp *Checkpoint, rebuild func() (*scenario.Network, error)) (*scenario.Network, error) {
	f, err := rebuild()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: rebuild failed: %w", err)
	}
	if err := Verify(f, cp); err != nil {
		return nil, fmt.Errorf("checkpoint: restored timeline diverged from checkpoint: %w", err)
	}
	return f, nil
}

// Write serializes cp as indented JSON.
func Write(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// Read deserializes a checkpoint and validates its format version and
// digest.
func Read(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if cp.Format != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format %d not supported (this build reads format %d)", cp.Format, FormatVersion)
	}
	if cp.Digest != "" {
		if got := cp.ComputeDigest(); got != cp.Digest {
			return nil, fmt.Errorf("checkpoint: artifact digest mismatch: recorded %s, computed %s", cp.Digest, got)
		}
	}
	return &cp, nil
}

// Save writes the checkpoint to path.
func (cp *Checkpoint) Save(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(file, cp); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Load reads a checkpoint from path.
func Load(path string) (*Checkpoint, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return Read(file)
}
