package routing

import (
	"math"
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// diamond: L0 {R1, R2} — R1 via L1, R2 via L2 — both reach R3 (on L1 and
// L2), which serves L3. Two equal-cost paths from L0 to L3.
func diamond() (*netem.Network, *Domain, map[string]*netem.Node, []*netem.Link) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	links := make([]*netem.Link, 4)
	for i := range links {
		links[i] = net.NewLink([]string{"L0", "L1", "L2", "L3"}[i], 0, time.Millisecond)
	}
	d := NewDomain(net)
	for i, l := range links {
		d.AssignPrefix(l, ipv6.MustParseAddr([]string{"2001:db8:10::", "2001:db8:11::", "2001:db8:12::", "2001:db8:13::"}[i]))
	}
	nodes := map[string]*netem.Node{}
	mk := func(name string, ls ...*netem.Link) {
		n := net.NewNode(name, true)
		for j, l := range ls {
			ifc := n.AddInterface(l)
			p, _ := d.PrefixOf(l)
			ifc.AddAddr(p.WithInterfaceID(uint64(name[1]-'0')*8 + uint64(j) + 1))
		}
		nodes[name] = n
	}
	mk("R0", links[0])           // a stub router on L0 to query from
	mk("R1", links[0], links[1]) // upper path
	mk("R2", links[0], links[2]) // lower path
	mk("R3", links[1], links[2], links[3])
	d.Recompute()
	return net, d, nodes, links
}

func TestEqualCostPathsDeterministic(t *testing.T) {
	_, d, nodes, _ := diamond()
	dst := ipv6.MustParseAddr("2001:db8:13::99")
	t0 := d.TableOf(nodes["R0"])
	ifc1, via1, ok := t0.NextHop(dst)
	if !ok {
		t.Fatal("unreachable")
	}
	hops, _ := t0.HopsTo(dst)
	if hops != 3 {
		t.Fatalf("hops = %d, want 3 (L0 -> L1/L2 -> L3)", hops)
	}
	// Recompute many times: the equal-cost choice must never flap.
	for i := 0; i < 10; i++ {
		d.Recompute()
		ifc2, via2, _ := d.TableOf(nodes["R0"]).NextHop(dst)
		if ifc2 != ifc1 || via2 != via1 {
			t.Fatalf("equal-cost tie flapped on recompute %d", i)
		}
	}
}

func TestDownedInterfaceExcludedFromSPF(t *testing.T) {
	_, d, nodes, links := diamond()
	dst := ipv6.MustParseAddr("2001:db8:13::99")
	// Down R1's L1 interface: the upper path disappears; the lower path
	// must carry.
	for _, ifc := range nodes["R1"].Ifaces {
		if ifc.Link == links[1] {
			ifc.SetUp(false)
		}
	}
	d.Recompute()
	t0 := d.TableOf(nodes["R0"])
	_, via, ok := t0.NextHop(dst)
	if !ok {
		t.Fatal("unreachable after losing one of two paths")
	}
	// Next hop must be R2 (on L0).
	var r2ll ipv6.Addr
	for _, ifc := range nodes["R2"].Ifaces {
		if ifc.Link == links[0] {
			r2ll = ifc.LinkLocal()
		}
	}
	if via != r2ll {
		t.Fatalf("next hop %s, want R2 %s", via, r2ll)
	}
}

func TestHostTableNoRouterOnLink(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	l := net.NewLink("lonely", 0, 0)
	d := NewDomain(net)
	d.AssignPrefix(l, ipv6.MustParseAddr("2001:db8:77::"))
	h := net.NewNode("h", false)
	h.AddInterface(l)
	d.Recompute()
	// On-link destinations work; off-link have no route.
	if _, _, ok := h.Routes.NextHop(ipv6.MustParseAddr("2001:db8:77::1")); !ok {
		t.Fatal("on-link destination unroutable")
	}
	if _, _, ok := h.Routes.NextHop(ipv6.MustParseAddr("2001:db8:99::1")); ok {
		t.Fatal("routed off-link with no router present")
	}
}

func TestRecomputePreservesExistingHostTables(t *testing.T) {
	_, d, nodes, links := diamond()
	h := nodes["R0"].Net.NewNode("h", false)
	h.AddInterface(links[3])
	d.Recompute()
	first := h.Routes
	d.Recompute()
	if h.Routes != first {
		t.Fatal("host table churned on recompute")
	}
}

// TestSixteenBitBoundsPanic checks that Recompute refuses, by name, a
// domain whose 16-bit hop counts or first-hop indexes would wrap: 65,536
// routers, and a router whose first-hop list could pass slot 65,535.
func TestSixteenBitBoundsPanic(t *testing.T) {
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want one containing %q", msg, want)
			}
		}()
		f()
	}
	t.Run("routers", func(t *testing.T) {
		net := netem.New(sim.NewScheduler(1))
		for i := 0; i <= math.MaxUint16; i++ {
			net.Nodes = append(net.Nodes, &netem.Node{Net: net, IsRouter: true})
		}
		mustPanic(t, "65536 routers", NewDomain(net).Recompute)
	})
	t.Run("first hops", func(t *testing.T) {
		r := &netem.Node{Name: "R0", IsRouter: true}
		// R0 has one up interface, on link 0, which carries nbrs router
		// interfaces, R0's among them: slot 0, R0's on-link first hop and
		// one per other interface.
		onLink := func(nbrs int32) *graph {
			return &graph{ifcAt: []int32{0, 1}, ifcs: []routerIfc{{link: 0}}, nbrAt: []int32{0, nbrs}}
		}
		if n := onLink(math.MaxUint16).firstHopBound(0, r); n != math.MaxUint16+1 {
			t.Fatalf("bound %d, want %d", n, math.MaxUint16+1)
		}
		mustPanic(t, "router R0 may have 65536 first hops", func() { onLink(math.MaxUint16+1).firstHopBound(0, r) })
	})
}
