//go:build !race

// Allocation budgets for the PIM codec and the dense-mode core's send and
// receive paths. Excluded under -race (the race runtime's allocation counts
// differ); scripts/check.sh runs them in a separate non-race pass.

package pimdm_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/hpimdm"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// sentBody keeps what TestMarshalAllocBudget marshals on the heap, as a
// sender's packet does.
var sentBody []byte

// TestMarshalAllocBudget pins pimdm.Marshal at one allocation for every
// message type: Marshal sizes the message, encodes header and body into
// that one buffer, and dispatches on the concrete type, so the message
// itself stays where its sender built it (a call through the interface's
// methods would move it to the heap). Growing the body by append and
// copying it behind the header measured 2 (a Hello) to 5 (a State Refresh,
// Join/Prune or declaration).
func TestMarshalAllocBudget(t *testing.T) {
	src := ipv6.LinkLocalFromIID(1)
	s := ipv6.MustParseAddr("2001:db8:1::10")
	jp := func(kind uint8) *pimdm.JoinPrune {
		return &pimdm.JoinPrune{Kind: kind, UpstreamNeighbor: src, Holdtime: time.Minute,
			Groups: []pimdm.JoinPruneGroup{{Group: group, Joins: []ipv6.Addr{s}, Prunes: []ipv6.Addr{src}}}}
	}
	decl := func(kind uint8) *pimdm.Declaration {
		return &pimdm.Declaration{Kind: kind, Target: src, Seq: 4, Group: group, Source: s}
	}
	msgs := []pimdm.Message{
		&pimdm.Hello{Holdtime: 105 * time.Second},
		&pimdm.Hello{Holdtime: 105 * time.Second, GenID: 7},
		jp(pimdm.TypeJoinPrune), jp(pimdm.TypeGraft), jp(pimdm.TypeGraftAck),
		&pimdm.Assert{Group: group, Source: s, MetricPreference: 101, Metric: 2},
		&pimdm.StateRefresh{Group: group, Source: s, Originator: s, TTL: 3, Interval: time.Minute},
		decl(pimdm.TypeInterest), decl(pimdm.TypeNoInterest), decl(pimdm.TypeDeclAck),
	}
	for _, msg := range msgs {
		allocs := testing.AllocsPerRun(100, func() {
			b, err := pimdm.Marshal(src, ipv6.AllPIMRouters, msg)
			if err != nil {
				t.Fatal(err)
			}
			sentBody = b
		})
		if allocs != 1 {
			t.Errorf("Marshal(%T, type %d) allocates %v objects; budget 1 (body grown by append, or copied?)", msg, msg.PIMType(), allocs)
		}
	}
}

// fixedRoute answers every RPF lookup with one interface and neighbour.
type fixedRoute struct {
	ifc *netem.Interface
	nbr ipv6.Addr
}

func (r fixedRoute) RPFInterface(ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	return r.ifc, r.nbr, r.ifc != nil
}

func (r fixedRoute) HopsTo(ipv6.Addr) (int, bool) { return 1, r.ifc != nil }

// engines builds each dense-mode engine on a node.
var engines = map[string]func(*netem.Node, engine.UnicastRouting) engine.MulticastEngine{
	"pimdm": func(n *netem.Node, r engine.UnicastRouting) engine.MulticastEngine {
		return pimdm.New(n, pimdm.DefaultConfig(), r)
	},
	"hpimdm": func(n *netem.Node, r engine.UnicastRouting) engine.MulticastEngine {
		return hpimdm.New(n, pimdm.DefaultConfig(), r)
	},
}

// TestHelloTickAllocBudget pins a Hello period of three routers on one
// link at no allocation, under both engines: each router re-sends the
// Hello it built for its interface, and each receiver re-arms a known
// neighbour's holdtime. Building the Hello on every send measured 5 a
// period (the packet and its body for each Hello); with PIM messages also
// parsed into pointer structs and marshalled by append, 17 (pimdm) and 19
// (hpimdm).
func TestHelloTickAllocBudget(t *testing.T) {
	for _, name := range []string{"pimdm", "hpimdm"} {
		t.Run(name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			net := netem.New(s)
			link := net.NewLink("L", 0, time.Millisecond)
			var es []engine.MulticastEngine
			for i := 0; i < 3; i++ {
				n := net.NewNode(fmt.Sprintf("R%d", i), true)
				n.AddInterface(link)
				es = append(es, engines[name](n, fixedRoute{}))
			}
			hellos := func() (n uint64) {
				for _, e := range es {
					n += e.MulticastStats().HellosSent
				}
				return n
			}
			period := pimdm.DefaultConfig().HelloInterval
			s.RunFor(4 * period) // neighbours known, triggered Hellos done
			before := hellos()
			const runs = 20
			allocs := testing.AllocsPerRun(runs, func() { s.RunFor(period) })
			if got := hellos() - before; got < 2*runs {
				t.Fatalf("%d Hellos in %d periods of three routers", got, runs+1)
			}
			t.Logf("Hello period: %v allocs (budget 0)", allocs)
			if allocs > 0 {
				t.Errorf("Hello period allocates %v objects; budget 0 (Hello rebuilt per send, or parsed into the heap?)", allocs)
			}
		})
	}
}

// pimPacket builds the PIM packet carrying msg from src to dst.
func pimPacket(t *testing.T, src, dst ipv6.Addr, msg pimdm.Message) *ipv6.Packet {
	t.Helper()
	body, err := pimdm.Marshal(src, dst, msg)
	if err != nil {
		t.Fatal(err)
	}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		Proto:   ipv6.ProtoPIM,
		Payload: body,
	}
}

// TestReceiveAllocBudget pins receiving a Hello, an Assert, a State
// Refresh and an HPIM-DM declaration (a DeclAck, which needs no answer) at
// no allocation under both engines: a neighbour T sends them to router R,
// whose route to the source points back at T. pimdm.Parse returns a value,
// and each handler reads its message where the parse left it. Parsing
// into pointer structs measured one allocation per message.
func TestReceiveAllocBudget(t *testing.T) {
	for _, name := range []string{"pimdm", "hpimdm"} {
		t.Run(name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			net := netem.New(s)
			link := net.NewLink("L", 0, time.Millisecond)
			r := net.NewNode("R", true)
			ri := r.AddInterface(link)
			tn := net.NewNode("T", true)
			ti := tn.AddInterface(link)
			e := engines[name](r, fixedRoute{ri, ti.LinkLocal()})
			src := ipv6.MustParseAddr("2001:db8:1::10")
			from := ti.LinkLocal()
			pkts := []*ipv6.Packet{
				pimPacket(t, from, ipv6.AllPIMRouters, &pimdm.Hello{Holdtime: 105 * time.Second, GenID: 9}),
				pimPacket(t, from, ipv6.AllPIMRouters, &pimdm.StateRefresh{
					Group: group, Source: src, Originator: src, MetricPreference: 101, Metric: 1, TTL: 3, Interval: time.Minute}),
				pimPacket(t, from, ipv6.AllPIMRouters, &pimdm.Assert{Group: group, Source: src, MetricPreference: 101, Metric: 1}),
				pimPacket(t, from, ri.LinkLocal(), &pimdm.Declaration{
					Kind: pimdm.TypeDeclAck, Target: ri.LinkLocal(), Seq: 1, Group: group, Source: src}),
			}
			round := func() {
				for _, p := range pkts {
					_ = tn.OutputOn(ti, p)
				}
				s.RunFor(10 * time.Millisecond)
			}
			s.RunFor(time.Second) // R's first Hello, and T known as its neighbour
			round()
			allocs := testing.AllocsPerRun(100, round)
			t.Logf("receive round: %v allocs (budget 0)", allocs)
			if allocs > 0 {
				t.Errorf("receiving Hello, State Refresh, Assert and DeclAck allocates %v objects; budget 0 (parsed into the heap?)", allocs)
			}
			if name == "pimdm" && e.EntryCount() != 1 {
				t.Errorf("pimdm: %d entries; the State Refresh should have made one", e.EntryCount())
			}
		})
	}
}
