package mip6mcast

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

// frameDigestsPath holds one "<case> <sha256>" line per
// TestSentPacketsNeverChange run: the hash of every frame it transmitted.
var frameDigestsPath = filepath.Join("testdata", "frame_digests.txt")

// sentLog records every transmission on every link of the networks it is
// attached to: the packet the link handed its receivers, the hop count it
// travelled with and a copy of the frame it encoded.
type sentLog struct {
	links []*[]sentFrame // one list per link (half), so regions never share one
}

type sentFrame struct {
	pkt   *ipv6.Packet
	hops  uint8
	frame []byte
}

// attach taps every link of f. It is an Options.OnNetwork hook.
func (l *sentLog) attach(f *scenario.Network) {
	for _, link := range f.Net.Links {
		recs := new([]sentFrame)
		l.links = append(l.links, recs)
		link.AddTap(func(ev netem.TxEvent) {
			*recs = append(*recs, sentFrame{ev.Pkt, ev.Hops, bytes.Clone(ev.Frame)})
		})
	}
}

// check requires every recorded packet, encoded with its transmission's
// hop limit, to give its frame byte for byte, now that the run is over.
func (l *sentLog) check(t *testing.T) {
	t.Helper()
	n, bad := 0, 0
	for _, recs := range l.links {
		for _, r := range *recs {
			n++
			enc, err := r.pkt.EncodeAppendHops(nil, r.hops)
			if err == nil && bytes.Equal(enc, r.frame) {
				continue
			}
			if bad++; bad <= 3 {
				t.Errorf("packet %v (%d hops) changed after it was sent:\n sent %x\n  now %x (err %v)", r.pkt, r.hops, r.frame, enc, err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no transmissions recorded")
	}
	if bad > 0 {
		t.Errorf("%d of %d transmitted packets no longer encode to their frames", bad, n)
	}
	t.Logf("%d transmissions checked", n)
}

// digest hashes every recorded frame, link by link in the order the links
// were attached (f.Net.Links order) and in transmission order on each, so
// any byte a change moves on any wire, the hop limit included, changes it.
func (l *sentLog) digest() string {
	h := sha256.New()
	var n [8]byte
	for _, recs := range l.links {
		binary.BigEndian.PutUint64(n[:], uint64(len(*recs)))
		h.Write(n[:])
		for _, r := range *recs {
			binary.BigEndian.PutUint64(n[:], uint64(len(r.frame)))
			h.Write(n[:])
			h.Write(r.frame)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// frameDigests checks each run's frame digest against frameDigestsPath.
// Regenerate (only for an intentional change to what goes on the wire,
// with the reason written down) with:
// UPDATE_FRAME_DIGESTS=1 go test -run TestSentPacketsNeverChange .
type frameDigests struct {
	names []string
	got   map[string]string
}

func (d *frameDigests) add(t *testing.T, l *sentLog) {
	if d.got == nil {
		d.got = map[string]string{}
	}
	d.names = append(d.names, t.Name())
	d.got[t.Name()] = l.digest()
}

// check compares the runs that took place (a -run filter may select a
// few) with the table; regenerating it takes every run.
func (d *frameDigests) check(t *testing.T, runs int) {
	t.Helper()
	if os.Getenv("UPDATE_FRAME_DIGESTS") != "" {
		if len(d.names) != runs {
			t.Fatalf("%d of %d runs took place; regenerate with the whole test", len(d.names), runs)
		}
		var buf bytes.Buffer
		for _, name := range d.names {
			fmt.Fprintf(&buf, "%s %s\n", name, d.got[name])
		}
		if err := os.WriteFile(frameDigestsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", frameDigestsPath, len(d.names))
		return
	}
	want := readDigestTable(t, frameDigestsPath, "UPDATE_FRAME_DIGESTS")
	if len(want) != runs {
		t.Errorf("%s has %d digests, the test makes %d runs", frameDigestsPath, len(want), runs)
	}
	for _, name := range d.names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no pinned frame digest", name)
		case w != d.got[name]:
			t.Errorf("%s: frame digest %s, pinned %s", name, d.got[name], w)
		}
	}
}

// TestSentPacketsNeverChange checks the data plane's sharing rule (DESIGN.md
// §5.1): a link gives every receiver and tap the packet that was sent
// whenever its frame decodes equal to it apart from the hop limit, and a
// router sends on the packet it received, so no packet may change once it
// is handed to a link, neither by its sender, nor by a forwarder, nor by a
// receiver. A tap on every link records each transmission's packet and hop
// count with a copy of its frame; after the run every packet, encoded with
// its transmission's hop limit, must still give its frame. The hash of every run's frames must also match
// testdata/frame_digests.txt, so a change that moves any byte on any wire
// (a hop limit included, which no trace records) fails here. It covers Figure 1 under every approach and both engines, the
// chaos matrix's all-in cell (loss, impairment, flap, crash) at seed 7,
// and the 4-shard ba-r40 cell, whose packets cross regions running on
// four goroutines (the race detector's view of the sharing).
func TestSentPacketsNeverChange(t *testing.T) {
	var digests frameDigests
	for _, eng := range []string{"pimdm", "hpimdm"} {
		for _, a := range Approaches() {
			t.Run(fmt.Sprintf("fig1/%s/%s", eng, a), func(t *testing.T) {
				var log sentLog
				opt := FastMLDOptions(10)
				opt.Seed = 42
				opt.Engine = eng
				opt.OnNetwork = log.attach
				f := buildHandover(opt, a, 15*time.Second)
				if a.Receive == ReceiveProxy && f.Proxy.Empty() {
					t.Fatal("proxy-hierarchy run built no proxy plan")
				}
				f.Run(40 * time.Second)
				log.check(t)
				digests.add(t, &log)
			})
		}
	}
	t.Run("chaos-seed7/all-in", func(t *testing.T) {
		var log sentLog
		opt := chaosTune(DefaultOptions())
		opt.Seed = 7
		opt.OnNetwork = log.attach
		for _, c := range chaosMatrix() {
			if c.name == "all-in" {
				runChaosOne(opt, LocalMembership, c, "")
			}
		}
		log.check(t)
		digests.add(t, &log)
	})
	t.Run("shard-ba-r40-shards4", func(t *testing.T) {
		var log sentLog
		shardSmokeTrace(t, "pimdm", 4, 4, log.attach)
		log.check(t)
		digests.add(t, &log)
	})
	digests.check(t, 2*len(Approaches())+2)
}
