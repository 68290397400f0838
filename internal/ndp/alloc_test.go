//go:build !race

// Allocation budgets for the Router Advertisement send path and the ICMPv6
// receive path on hosts and routers. Excluded under -race (the race
// runtime's allocation counts differ); scripts/check.sh runs them in a
// separate non-race pass.

package ndp

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// advertNet builds a link whose router R advertises a fixed prefix once a
// second without jitter, and counts the advertisements the link carries.
func advertNet() (*sim.Scheduler, *netem.Network, *netem.Link, *int) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	link := net.NewLink("L", 0, time.Millisecond)
	r := net.NewNode("R", true)
	r.AddInterface(link)
	cfg := DefaultRouterConfig()
	cfg.AdvJitter = 0
	prefix := ipv6.MustParseAddr("2001:db8:1::")
	NewRouter(r, cfg, func(*netem.Interface) (ipv6.Addr, bool) { return prefix, true })
	adverts := 0
	link.AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoICMPv6 && ev.Pkt.Payload[0] == icmpv6.TypeRouterAdvert {
			adverts++
		}
	})
	return s, net, link, &adverts
}

// TestRouterAdvertAllocBudget pins one unsolicited Router Advertisement
// tick to 8 hosts running ndp.Host and mld.Host at no allocation: the
// router re-sends its encoded advertisement, the link's decode is that
// packet, delivery events are typed and pooled, and each host parses the
// advertisement once into a value for ndp.Host alone. A decoded Packet per
// transmission measured 1; the path that rebuilt and re-marshalled the
// advertisement on every tick and parsed it once per handler measured 47.
func TestRouterAdvertAllocBudget(t *testing.T) {
	s, net, link, adverts := advertNet()
	g := ipv6.MustParseAddr("ff0e::7")
	const hosts = 8
	hs := make([]*Host, hosts)
	for i := range hs {
		n := net.NewNode(fmt.Sprintf("h%d", i), false)
		ifc := n.AddInterface(link)
		hs[i] = NewHost(n, uint64(i+1))
		mld.NewHost(n, mld.DefaultHostConfig()).Join(ifc, g)
	}
	s.RunFor(time.Minute) // addresses formed, unsolicited Reports done, pools warm
	for i, h := range hs {
		if h.Addr(h.Node.Ifaces[0]).IsUnspecified() {
			t.Fatalf("host %d formed no address", i)
		}
	}
	before := *adverts
	allocs := testing.AllocsPerRun(100, func() { s.RunFor(time.Second) })
	if got := *adverts - before; got != 101 {
		t.Fatalf("%d advertisements in 101 one-second rounds, want one per round", got)
	}
	t.Logf("advertisement tick: %v allocs (budget 0)", allocs)
	if allocs > 0 {
		t.Errorf("advertisement tick allocates %v objects; budget 0 (RA rebuilt or decoded, or parsed per handler?)", allocs)
	}
}

// TestAdvertToRouterAllocBudget pins the dispatch of a message type a node
// has no handler for: a router running mld.Router and ndp.Router handles
// ICMPv6 types 130–133 but not 134, so an advertisement reaching it is
// never parsed and, since the link's decode is the sent packet, costs
// nothing. A decoded Packet per transmission measured 1; parsing it in
// both modules' handlers, and a delivery closure, measured 12.
func TestAdvertToRouterAllocBudget(t *testing.T) {
	s, net, link, adverts := advertNet()
	r2 := net.NewNode("R2", true)
	r2.AddInterface(link)
	quiet := mld.DefaultConfig()
	quiet.QueryInterval, quiet.StartupQueryInterval = time.Hour, time.Hour
	mr := mld.NewRouter(r2, quiet)
	cfg := DefaultRouterConfig()
	cfg.AdvInterval = time.Hour
	NewRouter(r2, cfg, func(*netem.Interface) (ipv6.Addr, bool) { return ipv6.Addr{}, false })
	s.RunFor(time.Minute)
	before := *adverts
	allocs := testing.AllocsPerRun(100, func() { s.RunFor(time.Second) })
	if got := *adverts - before; got != 101 {
		t.Fatalf("%d advertisements in 101 one-second rounds, want one per round", got)
	}
	if len(r2.Drops) != 0 || mr.ReportsHeard != 0 {
		t.Fatalf("router R2: drops %v, reports heard %d", r2.Drops, mr.ReportsHeard)
	}
	t.Logf("advertisement to a router: %v allocs (budget 0)", allocs)
	if allocs > 0 {
		t.Errorf("advertisement to a router allocates %v objects; budget 0 (decoded, or parsed without a handler?)", allocs)
	}
}
