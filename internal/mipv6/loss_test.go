package mipv6_test

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// TestRegistrationSucceedsUnderLoss injects 50% loss on the transit link
// between the foreign network and the home agent: Binding Update
// retransmission must eventually complete the registration.
func TestRegistrationSucceedsUnderLoss(t *testing.T) {
	f := newFixture(31)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.l["L0"].LossRate = 0.5
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(2 * time.Minute))

	if !f.mn.Registered() {
		t.Fatalf("registration failed under 50%% loss after %d binding updates", f.mn.BindingUpdatesSent)
	}
	if f.mn.BindingUpdatesSent < 2 {
		t.Fatalf("only %d binding updates sent; retransmission machinery idle", f.mn.BindingUpdatesSent)
	}
	if _, ok := f.ha.BindingFor(f.mn.HomeAddress); !ok {
		t.Fatal("no binding despite Registered()")
	}
}

// TestTunnelLossRatio: tunneled unicast crosses the lossy transit link once
// per datagram; the delivery ratio tracks (1 - loss) with no systematic
// protocol failure on top.
func TestTunnelLossRatio(t *testing.T) {
	f := newFixture(33)
	cn, cnAddr, _ := f.correspondent(7)
	got := 0
	f.mnod.BindUDP(7, func(netem.RxPacket, ipv6.UDP) { got++ })

	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))
	f.l["L0"].LossRate = 0.25

	const n = 1000
	for i := 0; i < n; i++ {
		i := i
		f.s.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = cn.Output(udpPacket(cnAddr, f.mn.HomeAddress, 7, "x"))
		})
	}
	f.s.RunFor(n*10*time.Millisecond + time.Minute)
	// Path cn -> R1 (L3, lossless) -> tunnel crossing L0 once (lossy).
	ratio := float64(got) / n
	if ratio < 0.68 || ratio > 0.82 {
		t.Fatalf("delivery ratio %.3f under 25%% transit loss, want ≈0.75", ratio)
	}
}

// TestDeregistrationRetransmitsUnderLoss: the mobile node returns to a
// lossy home link. The lifetime-0 Binding Update requests an
// acknowledgement like any other registration, so losing it must trigger
// retransmission until the home agent drops the binding — otherwise the
// stale entry keeps the home agent defending and tunneling for a host
// that is back on-link.
func TestDeregistrationRetransmitsUnderLoss(t *testing.T) {
	f := newFixture(57)
	f.s.RunUntil(sim.Time(5 * time.Second))
	f.net.Move(f.mnod.Ifaces[0], f.l["L2"])
	f.s.RunUntil(sim.Time(20 * time.Second))
	if _, ok := f.ha.BindingFor(f.mn.HomeAddress); !ok {
		t.Fatal("no binding after move")
	}

	// The home agent lives on the home link, so the deregistration (and
	// its ack) crosses L1 — lose half of everything there.
	f.l["L1"].LossRate = 0.5
	sent := f.mn.BindingUpdatesSent
	f.net.Move(f.mnod.Ifaces[0], f.l["L1"])
	f.s.RunUntil(sim.Time(3 * time.Minute))

	if !f.mn.AtHome() {
		t.Fatal("MN did not detect return home")
	}
	if _, ok := f.ha.BindingFor(f.mn.HomeAddress); ok {
		t.Fatalf("binding survived deregistration under 50%% loss (%d BUs sent)",
			f.mn.BindingUpdatesSent-sent)
	}
	if f.mn.BindingUpdatesSent-sent < 2 {
		t.Fatalf("only %d deregistration BUs sent; retransmission machinery idle",
			f.mn.BindingUpdatesSent-sent)
	}
}
