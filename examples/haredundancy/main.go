// Home agent redundancy: the extension the paper's conclusion points to
// (its reference [10]). Two home agents on the home link share one service
// address; the active one serves registrations and replicates binding
// state to the standby. When it crashes mid-stream, the standby promotes
// itself and multicast delivery to the roaming receiver continues —
// without any action from the mobile node.
//
//	go run ./examples/haredundancy
package main

import (
	"fmt"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

func main() {
	opt := scenario.DefaultOptions().WithMLD(mld.FastConfig(30 * time.Second))
	// The stationary hosts in this scenario don't need unsolicited
	// re-reports; the roaming receiver's membership travels via its HA.
	opt.HostMLD.ResendOnMove = false
	f := scenario.NewFigure1(opt)

	// Two dedicated HA boxes on Link 4 (R3's home link) behind one service
	// address, plus the usual PIM-capable router D as the multicast router.
	service := ipv6.MustParseAddr("2001:db8:4::5e")
	ccfg := mipv6.DefaultClusterConfig(service)
	var members [2]*mipv6.ClusterMember
	var hsvcs [2]*core.HAService
	for i := 0; i < 2; i++ {
		n := f.Net.NewNode(fmt.Sprintf("ha%d", i), false)
		ifc := n.AddInterface(f.Links["L4"])
		ifc.AddAddr(service)
		ha := mipv6.NewHomeAgent(n, ifc, service, mipv6.DefaultHAConfig())
		members[i] = mipv6.NewClusterMember(ha, ccfg, uint16(200-100*i))
		// The HA boxes are hosts, not PIM routers: they join groups via
		// plain MLD toward router D (the paper's second §4.3.2 variant).
		haMLD := mld.NewHost(n, mld.HostConfig{Config: opt.MLD, ResendOnMove: true})
		hsvcs[i] = core.NewHAService(ha, nil, haMLD, opt.MLD)
	}
	f.Dom.Recompute()

	// R3 uses the cluster's service address as its home agent and receives
	// through the tunnel.
	r3 := f.Hosts["R3"]
	r3.MN.Config.HomeAgent = service
	svc := core.NewService(r3.MN, r3.MLD, core.UniTunnelHAToMN, opt.MLD)
	svc.Join(scenario.Group)

	received := 0
	r3.Node.BindUDP(scenario.WorkloadPort, func(rx netem.RxPacket, u ipv6.UDP) {
		received++
	})

	// Static sender on Link 1.
	s := f.Hosts["S"]
	sSvc := core.NewService(s.MN, s.MLD, core.LocalMembership, opt.MLD)
	scenario.NewCBR(f.Sched, 1, 100*time.Millisecond, 64, func(p []byte) {
		sSvc.Send(scenario.Group, p)
	})

	f.Run(15 * time.Second)
	fmt.Printf("t=%s  election done: ha0 active=%v, ha1 active=%v\n",
		f.Sched.Now(), members[0].Active(), members[1].Active())

	f.Move("R3", "L6")
	f.Run(15 * time.Second)
	fmt.Printf("t=%s  R3 roamed to Link 6, receiving via tunnel: %d datagrams\n",
		f.Sched.Now(), received)
	fmt.Printf("         standby holds %d replicated binding(s)\n", members[1].ShadowCount())

	before := received
	crashAt := f.Sched.Now()
	members[0].Fail()
	fmt.Printf("t=%s  *** active home agent ha0 crashes ***\n", crashAt)

	f.Run(60 * time.Second)
	fmt.Printf("t=%s  ha1 active=%v (promotions: %d)\n",
		f.Sched.Now(), members[1].Active(), members[1].Promotions)
	fmt.Printf("         stream resumed: %d more datagrams; outage ≈ %s\n",
		received-before, outage(received, before))

	members[0].Recover()
	f.Run(30 * time.Second)
	fmt.Printf("t=%s  ha0 recovered and preempted: active=%v; ha1 active=%v\n",
		f.Sched.Now(), members[0].Active(), members[1].Active())
}

// outage estimates the delivery gap around the crash from counters.
func outage(now, before int) time.Duration {
	if now == before {
		return -1 // nothing resumed
	}
	// With a 100 ms CBR, missing datagrams ≈ gap length.
	missed := 600 - (now - before) // 60 s window
	if missed < 0 {
		missed = 0
	}
	return time.Duration(missed) * 100 * time.Millisecond
}
