package scenario

// Timer hygiene across node crash/restart: once a router is crashed, no
// ticker or timer owned by its dead protocol engines may ever fire again —
// observable as the crashed node transmitting nothing, over a horizon far
// past every protocol period (hellos, MLD queries, NDP advertisements,
// state refresh, binding refresh). After restart, the rebuilt engines must
// come back to life and re-learn the protocol state.

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
)

func TestCrashedRouterNeverTransmits(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Settle()
	h := f.Hosts["R3"]
	h.MLD.Join(h.Iface, Group)
	f.Run(30 * time.Second)

	d := f.Routers["D"]
	checkHAServices(t, "before the crash", d)
	dAddrs := map[ipv6.Addr]bool{}
	for _, ifc := range d.Node.Ifaces {
		dAddrs[ifc.LinkLocal()] = true // hellos/queries use link-local src
		for _, a := range ifc.Addrs() {
			dAddrs[a] = true
		}
	}
	fromD := 0
	for _, ln := range []string{"L3", "L4", "L5"} {
		f.Links[ln].AddTap(func(ev netem.TxEvent) {
			if ev.Pkt != nil && dAddrs[ev.Pkt.Hdr.Src] {
				fromD++
			}
		})
	}
	// Sanity: with D alive the taps must see its periodic traffic.
	f.Run(2 * time.Minute)
	if fromD == 0 {
		t.Fatal("setup: taps saw no frames from a live D")
	}

	f.CrashRouter("D")
	if len(d.HAServices) != 0 {
		t.Fatalf("crashed router keeps %d home-agent services", len(d.HAServices))
	}
	fromD = 0
	// Hours of virtual time: every periodic engine timer (hello 30 s, MLD
	// query 125 s, RA, state refresh, listener expiries) would fire many
	// times over if any survived the crash.
	f.Run(4 * time.Hour)
	if fromD != 0 {
		t.Fatalf("dead router transmitted %d frames; some engine timer survived Crash", fromD)
	}
	hellosAtCrash := d.Engine.MulticastStats().HellosSent
	f.Run(10 * time.Minute)
	if d.Engine.MulticastStats().HellosSent != hellosAtCrash {
		t.Fatal("closed PIM engine kept sending hellos")
	}

	// Revival: fresh engines take over, the node speaks again and relearns
	// its listeners.
	f.RestartRouter("D")
	d = f.Routers["D"] // RestartRouter rebuilds the protocol engines
	checkHAServices(t, "after the restart", d)
	f.Run(5 * time.Minute)
	if fromD == 0 {
		t.Fatal("restarted router stayed silent")
	}
	var l4 *netem.Interface
	for _, ifc := range d.Node.Ifaces {
		if ifc.Link == f.Links["L4"] {
			l4 = ifc
		}
	}
	if l4 == nil {
		t.Fatal("D lost its L4 attachment across restart")
	}
	if !d.MLD.HasListeners(l4, Group) {
		t.Fatal("restarted MLD querier did not relearn R3's membership")
	}
	if !d.Engine.HasLocalMember(Group) && d.Engine.EntryCount() == 0 {
		// No data flows in this test; just require the MLD->PIM wiring to
		// have reported the listener to the fresh engine.
		t.Log("note: no (S,G) entries without a sender; listener wiring checked via MLD")
	}
}

// checkHAServices requires D to run one service per home agent (L4, L5),
// each bound to that home agent and to D's current engine.
func checkHAServices(t *testing.T, when string, d *Router) {
	t.Helper()
	has := d.HomeAgents()
	if len(has) != 2 || len(d.HAServices) != len(has) {
		t.Fatalf("%s: D runs %d home-agent services for %d home agents, want 2", when, len(d.HAServices), len(has))
	}
	for i, svc := range d.HAServices {
		if svc.HA != has[i] {
			t.Errorf("%s: service %d is bound to another home agent", when, i)
		}
		if svc.PIMMember != d.Engine {
			t.Errorf("%s: service %d is bound to another engine", when, i)
		}
	}
}

// TestCrashClearsVolatileKeepsStatic pins the crash model: addresses and
// link attachment survive; handlers, joined groups and proxies do not.
func TestCrashClearsVolatileKeepsStatic(t *testing.T) {
	f := NewFigure1(DefaultOptions())
	f.Settle()
	h := f.Hosts["R3"]
	h.MLD.Join(h.Iface, Group)
	f.Run(time.Second)

	d := f.Routers["D"]
	nAddrs := 0
	for _, ifc := range d.Node.Ifaces {
		nAddrs += len(ifc.Addrs())
	}
	if nAddrs == 0 {
		t.Fatal("setup: D has no addresses")
	}
	f.CrashRouter("D")
	for _, ifc := range d.Node.Ifaces {
		if ifc.Up() {
			t.Fatal("interface still up after crash")
		}
		if got := len(ifc.Addrs()); got == 0 {
			t.Fatal("crash wiped static addresses")
		}
	}

	// Group membership is volatile state. A host interface has no
	// all-multicast mode, so its receive filter directly exposes the joined
	// set — which a crash must wipe.
	if !h.Iface.AcceptsGroup(Group) {
		t.Fatal("setup: R3's interface does not accept the joined group")
	}
	h.Node.Crash()
	if h.Iface.AcceptsGroup(Group) {
		t.Fatal("crash left the joined group in the receive filter")
	}
	if got := len(h.Iface.Addrs()); got == 0 {
		t.Fatal("host crash wiped static addresses")
	}

	f.RestartRouter("D")
	for _, ifc := range f.Routers["D"].Node.Ifaces {
		if !ifc.Up() {
			t.Fatal("interface down after restart")
		}
	}
}
