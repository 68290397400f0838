package mipv6_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// lbFixture: two HA boxes on the home link, four service addresses, four
// mobile nodes assigned round-robin.
type lbFixture struct {
	*fixture
	bc    *mipv6.BalancedCluster
	mns   []*mipv6.MobileNode
	nodes []*netem.Node
}

func newLB(seed int64, nMNs int) *lbFixture {
	f := newFixture(seed)
	lb := &lbFixture{fixture: f}

	var boxes []*netem.Node
	var ifaces []*netem.Interface
	for i := 0; i < 2; i++ {
		n := f.net.NewNode(fmt.Sprintf("box%d", i), false)
		ifc := n.AddInterface(f.l["L1"])
		boxes = append(boxes, n)
		ifaces = append(ifaces, ifc)
	}
	addrs := make([]ipv6.Addr, 4)
	for j := range addrs {
		addrs[j] = ipv6.MustParseAddr(fmt.Sprintf("2001:db8:1::5e%d", j))
	}
	lb.bc = mipv6.NewBalancedCluster(boxes, ifaces, addrs, mipv6.DefaultClusterConfig(addrs[0]), mipv6.DefaultHAConfig())
	f.dom.Recompute()

	// nMNs mobile nodes homed on L1, assigned addresses round-robin.
	for k := 0; k < nMNs; k++ {
		n := f.net.NewNode(fmt.Sprintf("mn%d", k), false)
		n.AddInterface(f.l["L1"])
		f.dom.Recompute()
		iid := uint64(0x8000 + k)
		p, _ := f.dom.PrefixOf(f.l["L1"])
		cfg := mipv6.DefaultMNConfig(p, lb.bc.AddressFor(iid))
		mn := mipv6.NewMobileNode(n, iid, cfg)
		lb.mns = append(lb.mns, mn)
		lb.nodes = append(lb.nodes, n)
	}
	return lb
}

func (lb *lbFixture) moveAllAway() {
	for _, n := range lb.nodes {
		lb.net.Move(n.Ifaces[0], lb.l["L2"])
	}
}

func TestBalancedClusterSplitsAddresses(t *testing.T) {
	lb := newLB(51, 0)
	lb.s.RunUntil(sim.Time(10 * time.Second))
	// Rotated priorities: box0 serves addresses 0 and 2, box1 serves 1
	// and 3.
	if lb.bc.ServedAddresses(0) != 2 || lb.bc.ServedAddresses(1) != 2 {
		t.Fatalf("address split = %d/%d, want 2/2",
			lb.bc.ServedAddresses(0), lb.bc.ServedAddresses(1))
	}
	for j := range lb.bc.Addresses {
		if got, want := lb.bc.ActiveBox(j), j%2; got != want {
			t.Errorf("address %d served by box %d, want %d", j, got, want)
		}
	}
}

func TestBalancedClusterSplitsBindings(t *testing.T) {
	lb := newLB(52, 4)
	lb.s.RunUntil(sim.Time(10 * time.Second))
	lb.moveAllAway()
	lb.s.RunUntil(sim.Time(30 * time.Second))

	for k, mn := range lb.mns {
		if !mn.Registered() {
			t.Fatalf("mn%d not registered", k)
		}
	}
	// 4 MNs round-robin over 4 addresses, addresses split 2/2: each box
	// serves 2 bindings.
	if lb.bc.BindingsAt(0) != 2 || lb.bc.BindingsAt(1) != 2 {
		t.Fatalf("binding split = %d/%d, want 2/2", lb.bc.BindingsAt(0), lb.bc.BindingsAt(1))
	}
}

func TestBalancedClusterFailoverConsolidates(t *testing.T) {
	lb := newLB(53, 4)
	lb.s.RunUntil(sim.Time(10 * time.Second))
	lb.moveAllAway()
	lb.s.RunUntil(sim.Time(30 * time.Second))

	lb.s.Schedule(0, func() { lb.bc.FailBox(0) })
	lb.s.RunUntil(sim.Time(45 * time.Second))

	// Box1 now serves all four addresses and all four bindings.
	if lb.bc.ServedAddresses(1) != 4 {
		t.Fatalf("box1 serves %d addresses after failover", lb.bc.ServedAddresses(1))
	}
	if lb.bc.BindingsAt(1) != 4 {
		t.Fatalf("box1 serves %d bindings after failover", lb.bc.BindingsAt(1))
	}

	// Recovery: box0 preempts its addresses back; MNs re-register with it
	// at the next refresh (lifetime/2 = 128 s).
	lb.s.Schedule(0, func() { lb.bc.RecoverBox(0) })
	lb.s.RunUntil(sim.Time(4 * time.Minute))
	if lb.bc.ServedAddresses(0) != 2 || lb.bc.ServedAddresses(1) != 2 {
		t.Fatalf("post-recovery split = %d/%d", lb.bc.ServedAddresses(0), lb.bc.ServedAddresses(1))
	}
	if lb.bc.BindingsAt(0) != 2 || lb.bc.BindingsAt(1) != 2 {
		t.Fatalf("post-recovery bindings = %d/%d", lb.bc.BindingsAt(0), lb.bc.BindingsAt(1))
	}
}

func TestBalancedClusterReachabilityThroughFailover(t *testing.T) {
	lb := newLB(54, 2)
	cn, cnAddr, _ := lb.correspondent(7)
	got := make([]int, 2)
	for k := range lb.nodes {
		k := k
		lb.nodes[k].BindUDP(7, func(netem.RxPacket, ipv6.UDP) { got[k]++ })
	}
	lb.s.RunUntil(sim.Time(10 * time.Second))
	lb.moveAllAway()
	lb.s.RunUntil(sim.Time(30 * time.Second))

	send := func() {
		for _, mn := range lb.mns {
			_ = cn.Output(udpPacket(cnAddr, mn.HomeAddress, 7, "x"))
		}
	}
	send()
	lb.s.RunUntil(sim.Time(35 * time.Second))
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("pre-failover reachability: %v", got)
	}
	lb.s.Schedule(0, func() { lb.bc.FailBox(0) })
	lb.s.RunUntil(sim.Time(50 * time.Second))
	send()
	lb.s.RunUntil(sim.Time(55 * time.Second))
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("post-failover reachability: %v", got)
	}
}
