package bench

import (
	"testing"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
)

// BenchmarkEngineForward prices one multicast engine's data path: a single
// ForwardMulticast call on router D of a converged Figure 1 network, for a
// datagram arriving on D's RPF interface (L3) and replicated onto L4 (R3's
// home link) and L5 (a listener added on D's L5 interface). The (S,G)
// lookup, the expiry re-arm, the outgoing-interface decision and both link
// transmissions are timed; delivering the copies is not (the network runs
// untimed every drainEvery calls).
func BenchmarkEngineForward(b *testing.B) {
	for _, eng := range scenario.EngineNames() {
		eng := eng
		b.Run(eng, func(b *testing.B) {
			opt := mip6mcast.DefaultOptions()
			opt.Seed = 1
			opt.Engine = eng
			f := buildFigure1(opt, 0)
			d := f.Routers["D"]
			var rx netem.RxPacket
			f.Links["L3"].AddTap(func(ev netem.TxEvent) {
				if rx.Pkt == nil && ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == scenario.Group {
					rx = netem.RxPacket{Iface: ifaceOn(d.Node, "L3"), Pkt: ev.Pkt}
				}
			})
			f.Run(10 * time.Second)
			d.Engine.HandleListenerChange(ifaceOn(d.Node, "L5"), scenario.Group, true)
			f.Run(time.Second)
			if rx.Pkt == nil {
				b.Fatal("no datagram crossed L3")
			}
			fwd := 0
			for _, sg := range d.Engine.Entries() {
				if sg.Source == rx.Pkt.Hdr.Src && sg.Group == scenario.Group {
					fwd = len(sg.ForwardingOn)
				}
			}
			if fwd < 2 {
				b.Fatalf("D forwards on %d interfaces, want at least 2", fwd)
			}

			const drainEvery = 32
			before := d.Engine.MulticastStats().DataForwarded
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Engine.ForwardMulticast(rx)
				if i%drainEvery == drainEvery-1 {
					b.StopTimer()
					f.Run(50 * time.Millisecond)
					b.StartTimer()
				}
			}
			b.StopTimer()
			// The CBR source's own datagrams add to the count; the floor is
			// what the timed calls must have sent.
			if got := d.Engine.MulticastStats().DataForwarded - before; got < uint64(2*b.N) {
				b.Fatalf("%d copies forwarded for %d calls, want at least %d", got, b.N, 2*b.N)
			}
		})
	}
}

// ifaceOn returns n's interface on the named link.
func ifaceOn(n *netem.Node, link string) *netem.Interface {
	for _, ifc := range n.Ifaces {
		if ifc.Link != nil && ifc.Link.Name == link {
			return ifc
		}
	}
	return nil
}
