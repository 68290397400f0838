package mip6mcast

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

// sentLog records every transmission on every link of the networks it is
// attached to: the packet the link handed its receivers and a copy of the
// frame it encoded.
type sentLog struct {
	links []*[]sentFrame // one list per link (half), so regions never share one
}

type sentFrame struct {
	pkt   *ipv6.Packet
	frame []byte
}

// attach taps every link of f. It is an Options.OnNetwork hook.
func (l *sentLog) attach(f *scenario.Network) {
	for _, link := range f.Net.Links {
		recs := new([]sentFrame)
		l.links = append(l.links, recs)
		link.AddTap(func(ev netem.TxEvent) {
			*recs = append(*recs, sentFrame{ev.Pkt, bytes.Clone(ev.Frame)})
		})
	}
}

// check requires every recorded packet to re-encode to its frame byte for
// byte, now that the run is over.
func (l *sentLog) check(t *testing.T) {
	t.Helper()
	n, bad := 0, 0
	for _, recs := range l.links {
		for _, r := range *recs {
			n++
			enc, err := r.pkt.Encode()
			if err == nil && bytes.Equal(enc, r.frame) {
				continue
			}
			if bad++; bad <= 3 {
				t.Errorf("packet %v changed after it was sent:\n sent %x\n  now %x (err %v)", r.pkt, r.frame, enc, err)
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

// TestSentPacketsNeverChange checks the data plane's sharing rule (DESIGN.md
// §5.1): a link gives every receiver and tap the packet that was sent
// whenever its frame decodes equal to it, so no packet may change once it
// is handed to a link, neither by its sender, nor by a forwarder, nor by a
// receiver. A tap on every link records each transmission's packet with a
// copy of its frame; after the run every packet must still encode to its
// frame. It covers Figure 1 under every approach and both engines, the
// chaos matrix's all-in cell (loss, impairment, flap, crash) at seed 7,
// and the 4-shard ba-r40 cell, whose packets cross regions running on
// four goroutines (the race detector's view of the sharing).
func TestSentPacketsNeverChange(t *testing.T) {
	for _, eng := range []string{"pimdm", "hpimdm"} {
		for _, a := range Approaches() {
			t.Run(fmt.Sprintf("fig1/%s/%s", eng, a), func(t *testing.T) {
				var log sentLog
				opt := FastMLDOptions(10)
				opt.Seed = 42
				opt.Engine = eng
				opt.OnNetwork = log.attach
				buildHandover(opt, a, 15*time.Second).Run(40 * time.Second)
				log.check(t)
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
	})
	t.Run("shard-ba-r40-shards4", func(t *testing.T) {
		var log sentLog
		shardSmokeTrace(t, "pimdm", 4, 4, log.attach)
		log.check(t)
	})
}
