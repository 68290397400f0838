package pimdm_test

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// TestGraftRetransmissionUnderLoss injects heavy control-plane loss on the
// path a Graft must cross: the Graft/Graft-Ack handshake retransmits every
// GraftRetry until acknowledged, so the late receiver connects despite the
// loss.
func TestGraftRetransmissionUnderLoss(t *testing.T) {
	f := newFig1(21, pimdm.DefaultConfig(), mld.FastConfig(30*time.Second))
	f.addSender("s0", "L1", 100*time.Millisecond)
	f.addReceiver("r1", "L1")
	f.s.RunUntil(sim.Time(20 * time.Second)) // converged, L5/L6 pruned

	// 60% loss on L5, where E's graft toward D must travel.
	f.links["L5"].LossRate = 0.6

	got := 0
	n := f.net.NewNode("late", false)
	ifc := n.AddInterface(f.links["L6"])
	h := mld.NewHost(n, mld.DefaultHostConfig())
	n.BindUDP(9000, func(netem.RxPacket, ipv6.UDP) { got++ })
	f.s.Schedule(0, func() { h.Join(ifc, group) })
	f.s.RunUntil(sim.Time(3 * time.Minute))

	if got < 200 {
		t.Fatalf("late receiver got %d datagrams through 60%% lossy graft path", got)
	}
	if f.engines["E"].Stats.GraftsSent < 2 {
		t.Fatalf("E sent %d grafts; expected retransmissions under loss", f.engines["E"].Stats.GraftsSent)
	}
}

// TestPruneEchoImprovesLossyOverrides: on the shared L3 LAN, C prunes and
// D must override. Under control-plane loss a lost override Join wedges
// the branch for the full prune holdtime unless the upstream's PruneEcho
// (RFC 3973 §4.4.2) gives D a second chance. Compare delivery with and
// without the echo across replicate seeds.
func TestPruneEchoImprovesLossyOverrides(t *testing.T) {
	run := func(seed int64, disableEcho bool, refresh time.Duration) (delivered int, echoes uint64) {
		cfg := pimdm.DefaultConfig()
		cfg.DisablePruneEcho = disableEcho
		cfg.StateRefreshInterval = refresh
		f := newFig1(seed, cfg, mld.FastConfig(30*time.Second))
		_, _, r3got, _ := f.addReceiver("r3", "L4")
		f.addSender("s0", "L1", 100*time.Millisecond)
		// Sustained control loss on the shared LAN.
		f.links["L3"].LossRate = 0.4
		f.s.RunUntil(sim.Time(6 * time.Minute))
		return (*r3got)(), f.engines["B"].Stats.PruneEchoesSent
	}
	bare, withEcho, withSR := 0, 0, 0
	sawEcho := false
	for seed := int64(1); seed <= 8; seed++ {
		off, _ := run(seed, true, 0)
		on, echoes := run(seed, false, 0)
		sr, _ := run(seed, false, 30*time.Second)
		bare += off
		withEcho += on
		withSR += sr
		if echoes > 0 {
			sawEcho = true
		}
	}
	if !sawEcho {
		t.Fatal("B never sent a prune echo")
	}
	// Each robustness layer must strictly improve aggregate delivery: the
	// echo heals some lost overrides immediately; the State Refresh P-bit
	// reaction heals every remaining wedge within one refresh interval.
	if float64(withEcho) <= 1.1*float64(bare) {
		t.Fatalf("prune echo did not clearly help: with=%d without=%d", withEcho, bare)
	}
	if withSR <= withEcho {
		t.Fatalf("state-refresh healing did not help: sr=%d echo=%d", withSR, withEcho)
	}
	// With both layers, uptime should be solid: the data hop itself loses
	// 40%, so ~0.6 of ~3590 sent (~2150/seed) is the ceiling; demand ≥65%%
	// of it.
	if withSR < 8*1400 {
		t.Fatalf("delivery with SR healing too low: %d over 8 seeds", withSR)
	}
}

// TestStreamSurvivesModerateLoss checks that the converged distribution
// tree keeps working end to end with loss on every link, and that the
// delivery ratio roughly matches the per-link loss compounded over the
// path (no systematic protocol collapse).
func TestStreamSurvivesModerateLoss(t *testing.T) {
	f := newFig1(22, pimdm.DefaultConfig(), mld.FastConfig(20*time.Second))
	_, _, r3got, _ := f.addReceiver("r3", "L4")
	f.addSender("s0", "L1", 100*time.Millisecond)
	f.s.RunUntil(sim.Time(30 * time.Second))
	start := (*r3got)()

	for _, l := range f.links {
		l.LossRate = 0.05
	}
	f.s.RunUntil(sim.Time(10 * time.Minute))
	delivered := (*r3got)() - start
	sent := 5700 // 9.5 min at 10/s
	// Path S->A->B->D->r3 crosses 4 links: expected ratio 0.95^4 ≈ 0.814.
	ratio := float64(delivered) / float64(sent)
	if ratio < 0.70 || ratio > 0.92 {
		t.Fatalf("delivery ratio %.3f under 5%% per-link loss, want ≈0.81", ratio)
	}
	// The tree must never be torn down: pim state persists throughout.
	if f.engines["D"].EntryCount() != 1 {
		t.Fatalf("D entry count = %d", f.engines["D"].EntryCount())
	}
}
