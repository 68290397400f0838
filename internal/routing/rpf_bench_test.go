package routing_test

import (
	"testing"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/routing"
)

// BenchmarkRPFLookup prices one RPF check, the lookup each router makes for
// every multicast datagram it receives, on a 500-router Barabási–Albert
// network. Successive calls walk every router's table toward an address on
// every LAN, so the working set is the whole domain's tables, not one
// cached entry.
func BenchmarkRPFLookup(b *testing.B) {
	f := routerNet(b, "ba", 500, 1, 0)
	var tables []*routing.RouterTable
	for _, name := range f.RouterOrder() {
		tables = append(tables, f.Dom.TableOf(f.Routers[name].Node))
	}
	var srcs []ipv6.Addr
	for _, li := range f.Topo.LANs() {
		p, _ := f.Dom.PrefixOf(f.Links[f.Topo.Links[li].Name])
		srcs = append(srcs, p.WithInterfaceID(0x99))
	}
	b.ReportAllocs()
	b.ResetTimer()
	ti, si := 0, 0
	for i := 0; i < b.N; i++ {
		if _, _, ok := tables[ti].RPFInterface(srcs[si]); !ok {
			b.Fatal("unreachable source")
		}
		if ti++; ti == len(tables) {
			ti = 0
			if si++; si == len(srcs) {
				si = 0
			}
		}
	}
}
