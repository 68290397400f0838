package pimdm_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/hpimdm"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

// denseEngines builds each dense-mode engine with its default timers, so
// the tests below run once per engine.
var denseEngines = []struct {
	name string
	make func(*netem.Node, engine.UnicastRouting) engine.MulticastEngine
}{
	{"pimdm", func(n *netem.Node, rt engine.UnicastRouting) engine.MulticastEngine {
		return pimdm.New(n, pimdm.DefaultConfig(), rt)
	}},
	{"hpimdm", func(n *netem.Node, rt engine.UnicastRouting) engine.MulticastEngine {
		return hpimdm.New(n, pimdm.DefaultConfig(), rt)
	}},
}

// onLink returns n's interface on l.
func onLink(n *netem.Node, l *netem.Link) *netem.Interface {
	for _, ifc := range n.Ifaces {
		if ifc.Link == l {
			return ifc
		}
	}
	return nil
}

// TestDownstreamFollowsAssertWinner builds two parallel forwarders above a
// downstream router:
//
//	L0{src,R1,R2}  L1{R1,R2,R3}  L2{R3,member}
//
// R1 and R2 both flood (S,G) onto L1 until the Assert election leaves one
// of them forwarding. R3 hears both routers' Asserts on its RPF link and
// must address its upstream signalling to the winner, whatever order the
// Asserts arrive in. When R3's member leaves, its Prune (PIM-DM) or
// NoInterest (HPIM-DM) goes to the winner; under PIM-DM the winner acts on
// it and L1 falls silent after the prune delay.
func TestDownstreamFollowsAssertWinner(t *testing.T) {
	const leaveAt = 20 * time.Second
	for _, eng := range denseEngines {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", eng.name, seed), func(t *testing.T) {
				s := sim.NewScheduler(seed)
				net := netem.New(s)
				dom := routing.NewDomain(net)
				links := make([]*netem.Link, 3)
				for i := range links {
					links[i] = net.NewLink(fmt.Sprintf("L%d", i), 0, time.Millisecond)
					dom.AssignPrefix(links[i], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:2%d::", i)))
				}
				mk := func(name string, ls ...*netem.Link) *netem.Node {
					r := net.NewNode(name, true)
					for _, l := range ls {
						p, _ := dom.PrefixOf(l)
						r.AddInterface(l).AddAddr(p.WithInterfaceID(uint64(name[1] - '0')))
					}
					return r
				}
				r1 := mk("R1", links[0], links[1])
				r2 := mk("R2", links[0], links[1])
				r3 := mk("R3", links[1], links[2])
				dom.Recompute()
				engines := map[*netem.Node]engine.MulticastEngine{}
				for _, r := range []*netem.Node{r1, r2, r3} {
					engines[r] = eng.make(r, dom.TableOf(r))
				}
				r3L1, r3L2 := onLink(r3, links[1]), onLink(r3, links[2])
				engines[r3].HandleListenerChange(r3L2, group, true)

				src := net.NewNode("src", false)
				sifc := src.AddInterface(links[0])
				sAddr := ipv6.MustParseAddr("2001:db8:20::50")
				sifc.AddAddr(sAddr)
				sim.NewTicker(s, 100*time.Millisecond, 0, func() {
					u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: []byte("x")}
					_ = src.OutputOn(sifc, &ipv6.Packet{
						Hdr:     ipv6.Header{Src: sAddr, Dst: group, HopLimit: 64},
						Proto:   ipv6.ProtoUDP,
						Payload: u.Marshal(sAddr, group),
					})
				})

				// R3's upstream signalling after the leave, and data on L1
				// once the prune delay has passed.
				var targets []ipv6.Addr
				quietFrom := sim.Time(leaveAt + pimdm.DefaultConfig().PruneDelay + time.Second)
				l1Data := 0
				links[1].AddTap(func(ev netem.TxEvent) {
					if ev.Time >= quietFrom && ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == group {
						l1Data++
					}
					if ev.Time < sim.Time(leaveAt) || ev.From != r3L1 || ev.Pkt.Proto != ipv6.ProtoPIM {
						return
					}
					msg, err := pimdm.Parse(ev.Pkt.Hdr.Src, ev.Pkt.Hdr.Dst, ev.Pkt.Payload)
					if err != nil {
						t.Fatal(err)
					}
					switch msg.Type {
					case pimdm.TypeJoinPrune:
						if m := msg.JoinPrune; len(m.Groups) > 0 && len(m.Groups[0].Prunes) > 0 {
							targets = append(targets, m.UpstreamNeighbor)
						}
					case pimdm.TypeNoInterest:
						targets = append(targets, msg.Decl.Target)
					}
				})

				s.RunUntil(sim.Time(leaveAt - time.Second))
				var winner *netem.Node
				for _, r := range []*netem.Node{r1, r2} {
					for _, sg := range engines[r].Entries() {
						for _, l := range sg.ForwardingOn {
							if l == "L1" {
								if winner != nil {
									t.Fatalf("both %s and %s forward on L1 after the election", winner.Name, r.Name)
								}
								winner = r
							}
						}
					}
				}
				if winner == nil {
					t.Fatal("no router forwards on L1")
				}

				s.RunUntil(sim.Time(leaveAt))
				engines[r3].HandleListenerChange(r3L2, group, false)
				s.RunUntil(sim.Time(leaveAt + 60*time.Second))

				if len(targets) == 0 {
					t.Fatal("R3 sent nothing upstream after its member left")
				}
				want := onLink(winner, links[1]).LinkLocal()
				for _, got := range targets {
					if got != want {
						t.Errorf("R3 addressed %v upstream, want the Assert winner %s (%v)", got, winner.Name, want)
					}
				}
				for _, sg := range engines[r3].Entries() {
					if !sg.PrunedUpstream || sg.GraftPending {
						t.Errorf("R3 upstream state not settled on pruned: %+v", sg)
					}
				}
				if eng.name == "pimdm" && l1Data != 0 {
					t.Errorf("%d data frames crossed L1 after the prune delay, want 0", l1Data)
				}
			})
		}
	}
}

// TestRepeatedListenerEdgeOnlyCounts pins how both engines treat a second
// "present" edge for a group on an interface that already has members: it
// only bumps the reference count. It emits nothing, sends nothing, and one
// "absent" edge afterwards leaves the interface a member; the second one
// ends the membership. (MLD itself only delivers alternating edges.)
func TestRepeatedListenerEdgeOnlyCounts(t *testing.T) {
	for _, eng := range denseEngines {
		t.Run(eng.name, func(t *testing.T) {
			s := sim.NewScheduler(5)
			net := netem.New(s)
			dom := routing.NewDomain(net)
			links := make([]*netem.Link, 3)
			for i := range links {
				links[i] = net.NewLink(fmt.Sprintf("L%d", i), 0, time.Millisecond)
				dom.AssignPrefix(links[i], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:3%d::", i)))
			}
			mk := func(name string, ls ...*netem.Link) *netem.Node {
				r := net.NewNode(name, true)
				for _, l := range ls {
					p, _ := dom.PrefixOf(l)
					r.AddInterface(l).AddAddr(p.WithInterfaceID(uint64(name[1] - '0')))
				}
				return r
			}
			r1 := mk("R1", links[0], links[1])
			r2 := mk("R2", links[1], links[2])
			dom.Recompute()
			eng.make(r1, dom.TableOf(r1))
			e2 := eng.make(r2, dom.TableOf(r2))
			rec := obs.NewRecorder(nil)
			e2.AttachRecorder(rec)

			src := net.NewNode("src", false)
			sifc := src.AddInterface(links[0])
			sAddr := ipv6.MustParseAddr("2001:db8:30::50")
			sifc.AddAddr(sAddr)
			sim.NewTicker(s, 100*time.Millisecond, 0, func() {
				u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: []byte("x")}
				_ = src.OutputOn(sifc, &ipv6.Packet{
					Hdr:     ipv6.Header{Src: sAddr, Dst: group, HopLimit: 64},
					Proto:   ipv6.ProtoUDP,
					Payload: u.Marshal(sAddr, group),
				})
			})
			onL2 := 0
			links[2].AddTap(func(ev netem.TxEvent) {
				if ev.Pkt.Proto == ipv6.ProtoUDP && ev.Pkt.Hdr.Dst == group {
					onL2++
				}
			})
			r2L2 := onLink(r2, links[2])
			members := func() []string { return e2.Checkpoint().LocalMembers }
			flowing := func() bool {
				before := onL2
				s.RunFor(2 * time.Second)
				return onL2 > before
			}

			s.RunUntil(sim.Time(5 * time.Second))
			e2.HandleListenerChange(r2L2, group, true)
			if !flowing() {
				t.Fatal("no data on the member link after the first edge")
			}

			events, ctrl := rec.Len(), e2.MulticastStats().ControlMessages()
			e2.HandleListenerChange(r2L2, group, true)
			if rec.Len() != events || e2.MulticastStats().ControlMessages() != ctrl {
				t.Errorf("second present edge recorded %d events and sent %d messages, want none",
					rec.Len()-events, e2.MulticastStats().ControlMessages()-ctrl)
			}
			if got := members(); len(got) != 1 || got[0] != group.String()+"@L2=2" {
				t.Fatalf("members after two present edges = %v", got)
			}

			e2.HandleListenerChange(r2L2, group, false)
			if got := members(); len(got) != 1 || got[0] != group.String()+"@L2=1" {
				t.Fatalf("members after one absent edge = %v", got)
			}
			if !flowing() {
				t.Fatal("one absent edge of two stopped the data")
			}

			e2.HandleListenerChange(r2L2, group, false)
			if got := members(); len(got) != 0 {
				t.Fatalf("members after both absent edges = %v", got)
			}
			s.RunFor(5 * time.Second) // prune delay and in-flight data
			if flowing() {
				t.Error("data still reaches L2 after the last member left")
			}
		})
	}
}
