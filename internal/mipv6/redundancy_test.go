package mipv6_test

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// clusterFixture extends the basic fixture with a second home agent on the
// home link, both joined into a redundancy cluster behind one service
// address.
type clusterFixture struct {
	*fixture
	service ipv6.Addr
	members [2]*mipv6.ClusterMember
	haNodes [2]*netem.Node
	has     [2]*mipv6.HomeAgent
}

func newCluster(seed int64) *clusterFixture {
	f := newFixture(seed)
	cf := &clusterFixture{fixture: f}
	cf.service = ipv6.MustParseAddr("2001:db8:1::5e")
	cfg := mipv6.DefaultClusterConfig(cf.service)

	// Member 0: a dedicated HA box on the home link (priority 200).
	// Member 1: a second box (priority 100).
	for i := 0; i < 2; i++ {
		n := f.net.NewNode([]string{"ha0", "ha1"}[i], false)
		ifc := n.AddInterface(f.l["L1"])
		ifc.AddAddr(cf.service) // NewClusterMember removes it until elected
		ha := mipv6.NewHomeAgent(n, ifc, cf.service, mipv6.DefaultHAConfig())
		cf.haNodes[i] = n
		cf.has[i] = ha
		cf.members[i] = mipv6.NewClusterMember(ha, cfg, uint16(200-100*i))
	}
	f.dom.Recompute()
	// Point the mobile node at the cluster's service address.
	f.mn.Config.HomeAgent = cf.service
	return cf
}

func TestClusterElectsHighestPriority(t *testing.T) {
	cf := newCluster(41)
	cf.s.RunUntil(sim.Time(10 * time.Second))
	if !cf.members[0].Active() {
		t.Fatal("priority-200 member not active")
	}
	if cf.members[1].Active() {
		t.Fatal("standby also active (split brain)")
	}
	// The service address resolves to exactly the active member.
	owner := cf.l["L1"].Resolve(cf.service)
	if owner == nil || owner.Node != cf.haNodes[0] {
		t.Fatalf("service address owned by %v", owner)
	}
}

func TestClusterReplicatesBindings(t *testing.T) {
	cf := newCluster(42)
	cf.s.RunUntil(sim.Time(10 * time.Second))
	cf.net.Move(cf.mnod.Ifaces[0], cf.l["L2"])
	cf.s.RunUntil(sim.Time(25 * time.Second))

	if _, ok := cf.has[0].BindingFor(cf.mn.HomeAddress); !ok {
		t.Fatal("active has no binding")
	}
	if cf.members[1].ShadowCount() != 1 {
		t.Fatalf("standby holds %d shadow bindings, want 1", cf.members[1].ShadowCount())
	}
	if n := len(cf.has[1].Bindings()); n != 0 {
		t.Fatalf("standby is serving %d bindings while not active", n)
	}
}

func TestClusterFailoverKeepsMobileNodeReachable(t *testing.T) {
	cf := newCluster(43)
	cn, cnAddr, _ := cf.correspondent(7)
	got := 0
	cf.mnod.BindUDP(7, func(netem.RxPacket, ipv6.UDP) { got++ })

	cf.s.RunUntil(sim.Time(10 * time.Second))
	cf.net.Move(cf.mnod.Ifaces[0], cf.l["L2"])
	cf.s.RunUntil(sim.Time(25 * time.Second))

	// Reachable via the active HA.
	_ = cn.Output(udpPacket(cnAddr, cf.mn.HomeAddress, 7, "pre-fail"))
	cf.s.RunUntil(sim.Time(30 * time.Second))
	if got != 1 {
		t.Fatalf("pre-failover delivery failed: %d", got)
	}

	// Active crashes.
	cf.s.Schedule(0, func() { cf.members[0].Fail() })
	cf.s.RunUntil(sim.Time(45 * time.Second)) // > FailoverAfter

	if !cf.members[1].Active() {
		t.Fatal("standby did not promote after failure")
	}
	if _, ok := cf.has[1].BindingFor(cf.mn.HomeAddress); !ok {
		t.Fatal("promoted member did not import the replicated binding")
	}
	// Traffic to the home address flows again, through the new HA.
	_ = cn.Output(udpPacket(cnAddr, cf.mn.HomeAddress, 7, "post-fail"))
	cf.s.RunUntil(sim.Time(50 * time.Second))
	if got != 2 {
		t.Fatalf("post-failover delivery failed: %d", got)
	}
	if cf.has[1].PacketsTunneled == 0 {
		t.Fatal("new active never tunneled")
	}
}

func TestClusterRecoveryPreemptsByPriority(t *testing.T) {
	cf := newCluster(44)
	cf.s.RunUntil(sim.Time(10 * time.Second))
	cf.net.Move(cf.mnod.Ifaces[0], cf.l["L2"])
	cf.s.RunUntil(sim.Time(25 * time.Second))

	cf.s.Schedule(0, func() { cf.members[0].Fail() })
	cf.s.RunUntil(sim.Time(40 * time.Second))
	if !cf.members[1].Active() {
		t.Fatal("no failover")
	}

	// The high-priority member recovers: it must preempt, and the binding
	// must follow it back (replication from the interim active).
	cf.s.Schedule(0, func() { cf.members[0].Recover() })
	cf.s.RunUntil(sim.Time(70 * time.Second))
	if !cf.members[0].Active() {
		t.Fatal("recovered high-priority member did not preempt")
	}
	if cf.members[1].Active() {
		t.Fatal("both active after recovery")
	}
	// MN refreshes its binding within lifetime/2 (128 s); give it time and
	// verify the preempted member serves it again.
	cf.s.RunUntil(sim.Time(200 * time.Second))
	if _, ok := cf.has[0].BindingFor(cf.mn.HomeAddress); !ok {
		t.Fatal("binding did not return to the preempting member")
	}
}

func TestClusterSplitBrainNeverPersists(t *testing.T) {
	cf := newCluster(45)
	// Run long with periodic checks: at no evaluation instant may both
	// members own the service address.
	bad := 0
	sim.NewTicker(cf.s, 500*time.Millisecond, 0, func() {
		if cf.members[0].Active() && cf.members[1].Active() {
			bad++
		}
	})
	cf.s.RunUntil(sim.Time(2 * time.Minute))
	if bad > 0 {
		t.Fatalf("both members active at %d sample points", bad)
	}
}
