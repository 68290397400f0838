//go:build !race

// Allocation budget for the MLD receive path. Excluded under -race (the
// race runtime's allocation counts differ); scripts/check.sh runs it in a
// separate non-race pass.

package mld

import (
	"fmt"
	"testing"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
)

// queryDispatchAllocBudget bounds one General Query and one Report for the
// queried group, each delivered to 8 listening hosts: each link decode is
// the sent packet, Router Alert option included, the node parses each
// message once into a value and the hosts re-arm and stop timers, so
// nothing is allocated. Measured 0; a decoded Packet per frame with its own
// option slice and data measured 6, and a per-receiver parse or delivery
// closure adds 8 per frame (parse-per-handler with closures measured 40).
const queryDispatchAllocBudget = 0

func TestQueryDispatchAllocBudget(t *testing.T) {
	f := newFixture(1, DefaultConfig())
	f.mr.Close() // the querier below sends prebuilt packets instead
	q := f.net.NewNode("Q", false)
	qi := q.AddInterface(f.link)
	g := ipv6.MustParseAddr("ff0e::7")
	const hosts = 8
	hs := make([]*Host, hosts)
	for i := range hs {
		_, ifc, h := f.addHost(fmt.Sprintf("h%d", i), DefaultHostConfig())
		h.Join(ifc, g)
		hs[i] = h
	}
	f.s.RunFor(DefaultConfig().UnsolicitedReportInterval * 3) // unsolicited Reports done
	src := qi.LinkLocal()
	query := Packet(src, ipv6.AllNodes, &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: DefaultConfig().MaxResponseDelay})
	report := Packet(src, g, &icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: g})
	reports := func() (n uint64) {
		for _, h := range hs {
			n += h.ReportsSent
		}
		return n
	}
	before := reports()
	round := func() {
		// The Report reaches every host at the Query's instant, after
		// it, so each host's response timer is armed and then stopped.
		_ = q.OutputOn(qi, query)
		_ = q.OutputOn(qi, report)
		f.s.RunFor(DefaultConfig().MaxResponseDelay)
	}
	for i := 0; i < 8; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if got := reports(); got != before {
		t.Fatalf("hosts sent %d Reports; suppression should have stopped every response", got-before)
	}
	t.Logf("query+report round: %v allocs (budget %d)", allocs, queryDispatchAllocBudget)
	if allocs > queryDispatchAllocBudget {
		t.Errorf("query+report round allocates %v objects; budget %d (per-receiver parse or delivery closure?)", allocs, queryDispatchAllocBudget)
	}
}

// packetAllocBudget bounds building one MLD message with Packet: the
// ipv6.Packet and its ICMPv6 payload. Every MLD packet shares one Router
// Alert header; measured 2 allocations, 144 B. Built per packet, the option
// slice and its data came on top of a 144-byte Packet: 4 allocations,
// 226 B.
const packetAllocBudget = 2

// sentPacket keeps the packets TestPacketAllocBudget builds on the heap,
// as a sender's are.
var sentPacket *ipv6.Packet

func TestPacketAllocBudget(t *testing.T) {
	src := ipv6.LinkLocalFromIID(1)
	g := ipv6.MustParseAddr("ff0e::7")
	m := &icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: g}
	allocs := testing.AllocsPerRun(1000, func() { sentPacket = Packet(src, g, m) })
	t.Logf("mld.Packet: %v allocs (budget %d)", allocs, packetAllocBudget)
	if allocs > packetAllocBudget {
		t.Errorf("mld.Packet allocates %v objects; budget %d (a Router Alert header per packet?)", allocs, packetAllocBudget)
	}
}
