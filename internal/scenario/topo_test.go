package scenario

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/topo"
)

// starGraph is a hub router on n+1 links: K0 (the core link, where the
// source sits) and leaves K1..Kn. The hub is home agent for every link.
func starGraph(n int) *topo.Graph {
	g := &topo.Graph{Name: fmt.Sprintf("star%d", n), Routers: []topo.Router{{Name: "HUB"}}}
	for i := 0; i <= n; i++ {
		g.Links = append(g.Links, topo.Link{Name: fmt.Sprintf("K%d", i), LAN: true})
		g.HomeAgent = append(g.HomeAgent, 0)
		g.Routers[0].Links = append(g.Routers[0].Links, i)
	}
	return g
}

func streamFrom(f *Network, h *Host, interval time.Duration) *CBR {
	return NewCBR(f.Sched, 1, interval, 64, func(p []byte) {
		src := h.MN.CareOf()
		if src.IsUnspecified() {
			src = h.MN.HomeAddress
		}
		u := &ipv6.UDP{SrcPort: WorkloadPort, DstPort: WorkloadPort, Payload: p}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: Group, HopLimit: ipv6.DefaultHopLimit},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(src, Group),
		}
		_ = h.Node.OutputOn(h.Iface, pkt)
	})
}

func TestLineTopologyEndToEnd(t *testing.T) {
	opt := DefaultOptions()
	f := Build(topo.Line(6), opt) // 6 routers, 7 links
	if len(f.Routers) != 6 || len(f.Links) != 7 {
		t.Fatalf("routers=%d links=%d", len(f.Routers), len(f.Links))
	}
	src := f.AddHost("src", "K0", 0x9001)
	dst := f.AddHost("dst", "K6", 0x9002)
	dst.MLD.Join(dst.Iface, Group)

	got := 0
	var hops int
	dst.Node.BindUDP(WorkloadPort, func(rx netem.RxPacket, u ipv6.UDP) {
		got++
		hops = int(ipv6.DefaultHopLimit - rx.HopLimit())
	})
	streamFrom(f, src, 100*time.Millisecond)
	f.Run(30 * time.Second)
	if got < 250 {
		t.Fatalf("delivered %d across 6-router chain", got)
	}
	if hops != 6 {
		t.Fatalf("hops = %d, want 6 (every router decrements)", hops)
	}
}

func TestLinePruningAtDepth(t *testing.T) {
	opt := DefaultOptions()
	f := Build(topo.Line(4), opt)
	src := f.AddHost("src", "K0", 0x9001)
	mid := f.AddHost("mid", "K2", 0x9002)
	mid.MLD.Join(mid.Iface, Group)
	streamFrom(f, src, 100*time.Millisecond)

	// Tail links beyond the member must be pruned after the flood.
	tail := 0
	f.Links["K4"].AddTap(func(ev netem.TxEvent) {
		if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == Group {
			tail++
		}
	})
	f.Run(60 * time.Second)
	if tail > 50 {
		t.Fatalf("tail link carried %d data frames; prune failed at depth", tail)
	}
	got := 0
	mid.Node.BindUDP(WorkloadPort, func(netem.RxPacket, ipv6.UDP) { got++ })
	f.Run(10 * time.Second)
	if got < 80 {
		t.Fatalf("mid host got %d", got)
	}
}

func TestLineMobileRegistersAcrossChain(t *testing.T) {
	opt := DefaultOptions()
	f := Build(topo.Line(5), opt)
	m := f.AddHost("m", "K0", 0x9001)
	f.Run(5 * time.Second)
	f.Move("m", "K5") // five routers away from home
	f.Run(20 * time.Second)
	if !m.MN.Registered() {
		t.Fatal("registration across the chain failed")
	}
	if _, ok := f.HomeAgentOf("m").BindingFor(m.MN.HomeAddress); !ok {
		t.Fatal("no binding at the home agent")
	}
}

func TestStarTopologyFloodBreadth(t *testing.T) {
	opt := DefaultOptions()
	f := Build(starGraph(8), opt) // hub + core link + 8 leaves
	src := f.AddHost("src", "K0", 0x9001)
	// One member on leaf 1; leaves 2..8 memberless.
	m := f.AddHost("m", "K1", 0x9002)
	m.MLD.Join(m.Iface, Group)

	leafFrames := make([]int, 9)
	for i := 1; i <= 8; i++ {
		i := i
		f.Links[fmt.Sprintf("K%d", i)].AddTap(func(ev netem.TxEvent) {
			if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == Group {
				leafFrames[i]++
			}
		})
	}
	streamFrom(f, src, 100*time.Millisecond)
	f.Run(60 * time.Second)

	if leafFrames[1] < 500 {
		t.Fatalf("member leaf got %d frames", leafFrames[1])
	}
	for i := 2; i <= 8; i++ {
		if leafFrames[i] != 0 {
			t.Errorf("memberless leaf %d carried %d frames (hub has no PIM neighbors there; no flood expected)", i, leafFrames[i])
		}
	}
}

func TestStarHomeAgentOnHub(t *testing.T) {
	opt := DefaultOptions()
	f := Build(starGraph(3), opt)
	m := f.AddHost("m", "K1", 0x9001)
	f.Run(5 * time.Second)
	f.Move("m", "K2")
	f.Run(15 * time.Second)
	if !m.MN.Registered() {
		t.Fatal("registration via hub failed")
	}
	b, ok := f.HomeAgentOf("m").BindingFor(m.MN.HomeAddress)
	if !ok {
		t.Fatal("hub has no binding")
	}
	p, _ := f.Dom.PrefixOf(f.Links["K2"])
	if !b.CareOf.MatchesPrefix(p, 64) {
		t.Fatalf("care-of %s not from leaf 2", b.CareOf)
	}
}

// Depth scaling: the tunnel detour grows linearly with the distance
// between home link and foreign link — quantifying the paper's
// "suboptimal routing" criterion as a function of topology depth.
func TestTunnelStretchGrowsWithDepth(t *testing.T) {
	measure := func(depth int) int {
		opt := DefaultOptions()
		f := Build(topo.Line(depth), opt)
		m := f.AddHost("m", "K0", 0x9001) // home at one end
		f.Run(5 * time.Second)
		f.Move("m", fmt.Sprintf("K%d", depth)) // foreign link at the other end
		f.Run(20 * time.Second)

		// The HA tunnels a unicast packet to the MN; outer hop count is
		// the detour length.
		src := f.AddHost("peer", "K0", 0x9002)
		got := make(chan int, 1)
		var outerHops int
		m.MN.OnDecap = func(outer netem.RxPacket, inner *ipv6.Packet) {
			outerHops = int(ipv6.DefaultHopLimit - outer.HopLimit())
		}
		m.Node.BindUDP(7, func(rx netem.RxPacket, u ipv6.UDP) {
			select {
			case got <- outerHops:
			default:
			}
		})
		u := &ipv6.UDP{SrcPort: 7, DstPort: 7, Payload: []byte("x")}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src.MN.HomeAddress, Dst: m.MN.HomeAddress, HopLimit: 64},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(src.MN.HomeAddress, m.MN.HomeAddress),
		}
		_ = src.Node.Output(pkt)
		f.Run(5 * time.Second)
		select {
		case h := <-got:
			return h
		default:
			t.Fatalf("depth %d: tunneled packet not delivered", depth)
			return 0
		}
	}
	// The encapsulating home agent originates the outer packet (no
	// decrement for itself): outer hops = depth - 1, linear in depth.
	h2, h5 := measure(2), measure(5)
	if h2 != 1 || h5 != 4 {
		t.Fatalf("tunnel outer hops = %d,%d for depths 2,5; want 1,4", h2, h5)
	}
}
