//go:build !race

// Allocation budget for building Mobile IPv6 signalling packets. Excluded
// under -race (the race runtime's allocation counts differ);
// scripts/check.sh runs it in a separate non-race pass.

package mipv6

import (
	"runtime"
	"testing"

	"mip6mcast/internal/ipv6"
)

// sentSignal keeps the packets TestSignalPacketAllocBudget builds on the
// heap, as a sender's are.
var sentSignal *ipv6.Packet

// TestSignalPacketAllocBudget pins each signalling packet at one
// allocation: the packet, its Ext and its option slice together, in the
// size class of what they took apart. An Ack measured 1 allocation of
// 192 B, a Binding Update 1 of 224 B; built apart they took 3 allocations
// of the same bytes.
func TestSignalPacketAllocBudget(t *testing.T) {
	ha := ipv6.MustParseAddr("2001:db8:1::1")
	careOf := ipv6.MustParseAddr("2001:db8:2::99")
	ack := (&ipv6.BindingAck{Status: ipv6.BindingAckAccepted, Sequence: 3, Lifetime: 256}).Marshal()
	bu, err := (&ipv6.BindingUpdate{Ack: true, HomeReg: true, Sequence: 3, Lifetime: 256}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	home := (&ipv6.HomeAddressOption{HomeAddress: ipv6.MustParseAddr("2001:db8:1::99")}).Marshal()
	for _, c := range []struct {
		name  string
		build func()
		bytes float64
	}{
		{"binding-ack", func() { sentSignal = signalPacket(ha, careOf, ack) }, 192},
		{"binding-update", func() { sentSignal = buPacket(careOf, ha, bu, home) }, 224},
	} {
		allocs := testing.AllocsPerRun(1000, c.build)
		bytes := bytesPerRun(1000, c.build)
		t.Logf("%s: %v allocs, %v B (budget 1, %v B)", c.name, allocs, bytes, c.bytes)
		if allocs > 1 || bytes > c.bytes {
			t.Errorf("%s packet allocates %v objects, %v B; budget 1, %v B (packet, Ext and options built apart, or oversized?)", c.name, allocs, bytes, c.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes one
// call of f allocates over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
