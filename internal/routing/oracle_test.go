package routing_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// refEntry and refSPF are the reference SPF: one map per router, filled by
// a breadth-first search with map bookkeeping, as the routing package first
// computed its tables. The dense-index tables must answer exactly as these
// maps do, equal-cost ties included.
type refEntry struct {
	out  *netem.Interface
	via  ipv6.Addr
	hops int
}

func refSPF(r *netem.Node) map[*netem.Link]refEntry {
	entries := map[*netem.Link]refEntry{}
	type frontier struct {
		router *netem.Node
		first  *netem.Interface
		via    ipv6.Addr
		dist   int
	}
	visitedLink := map[*netem.Link]bool{}
	visitedRouter := map[*netem.Node]bool{r: true}
	var queue []frontier
	linkIfaces := func(l *netem.Link) [][]*netem.Interface {
		if p := l.Peer(); p != nil {
			return [][]*netem.Interface{l.Ifaces, p.Ifaces}
		}
		return [][]*netem.Interface{l.Ifaces}
	}
	for _, ifc := range r.Ifaces {
		if !ifc.Up() {
			continue
		}
		l := ifc.Link.Canon()
		if !visitedLink[l] {
			visitedLink[l] = true
			entries[l] = refEntry{out: ifc, hops: 1}
		}
		for _, side := range linkIfaces(l) {
			for _, nifc := range side {
				nb := nifc.Node
				if nb == r || !nb.IsRouter || visitedRouter[nb] {
					continue
				}
				visitedRouter[nb] = true
				queue = append(queue, frontier{router: nb, first: ifc, via: nifc.LinkLocal(), dist: 1})
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ifc := range cur.router.Ifaces {
			if !ifc.Up() {
				continue
			}
			l := ifc.Link.Canon()
			if !visitedLink[l] {
				visitedLink[l] = true
				entries[l] = refEntry{out: cur.first, via: cur.via, hops: cur.dist + 1}
			}
			for _, side := range linkIfaces(l) {
				for _, nifc := range side {
					nb := nifc.Node
					if !nb.IsRouter || visitedRouter[nb] {
						continue
					}
					visitedRouter[nb] = true
					queue = append(queue, frontier{router: nb, first: cur.first, via: cur.via, dist: cur.dist + 1})
				}
			}
		}
	}
	return entries
}

// routerNet builds a generated graph's router network with its full
// protocol stack and no hosts, as the scale experiments do. shards > 1
// partitions it into kernel regions, splitting cross-region links.
func routerNet(tb testing.TB, family string, routers int, seed int64, shards int) *scenario.Network {
	tb.Helper()
	g, err := topo.FromSpec(family, routers, seed)
	if err != nil {
		tb.Fatal(err)
	}
	opt := scenario.DefaultOptions()
	opt.Seed = seed
	opt.Shards = shards
	opt.ShardWorkers = 1
	opt.CoreLinkDelay = 2 * time.Millisecond
	return scenario.Build(g, opt)
}

// snapshot is every router's table as Recompute left it, with the
// reference computed on the same topology.
type snapshot map[*netem.Node]tableRef

type tableRef struct {
	table *routing.RouterTable
	ref   map[*netem.Link]refEntry
}

func takeSnapshot(d *routing.Domain) snapshot {
	s := snapshot{}
	for _, n := range d.Net.Nodes {
		if n.IsRouter {
			s[n] = tableRef{d.TableOf(n), refSPF(n)}
		}
	}
	return s
}

// check asserts that every table answers like its reference toward an
// address on every canonical link that has a prefix.
func (s snapshot) check(t *testing.T, d *routing.Domain, when string) {
	t.Helper()
	bad := 0
	for r, rt := range s {
		want := fmt.Sprintf("table(%s, %d prefixes)", r.Name, len(rt.ref))
		if got := rt.table.String(); got != want {
			t.Errorf("%s: %s, want %s", when, got, want)
		}
		for _, l := range d.Net.Links {
			p, ok := d.PrefixOf(l)
			if l.Canon() != l || !ok {
				continue
			}
			dst := p.WithInterfaceID(0x99)
			if got := d.LinkFor(dst); got != l {
				t.Fatalf("%s: LinkFor(%s) = %v, want %s", when, dst, got, l.Name)
			}
			e, reach := rt.ref[l]
			wantVia := e.via
			if reach && wantVia.IsUnspecified() {
				wantVia = dst
			}
			out, via, ok := rt.table.NextHop(dst)
			if ok != reach || out != e.out || (reach && via != wantVia) {
				bad++
				t.Errorf("%s: %s NextHop(%s) = %v %s %v, want %v %s %v", when, r.Name, l.Name, out, via, ok, e.out, wantVia, reach)
			}
			hops, ok := rt.table.HopsTo(dst)
			if ok != reach || (reach && hops != e.hops) {
				bad++
				t.Errorf("%s: %s HopsTo(%s) = %d %v, want %d %v", when, r.Name, l.Name, hops, ok, e.hops, reach)
			}
			out, via, ok = rt.table.RPFInterface(dst)
			if ok != reach || out != e.out || via != e.via {
				bad++
				t.Errorf("%s: %s RPFInterface(%s) = %v %s %v, want %v %s %v", when, r.Name, l.Name, out, via, ok, e.out, e.via, reach)
			}
			if bad > 20 {
				t.Fatalf("%s: too many mismatches", when)
			}
		}
	}
}

// multiAccess builds a random router network over shared links: each of
// n routers attaches 1–3 interfaces to random links among n/3, so links
// carry several routers (sometimes one router twice) and equal-cost paths
// abound. A few interfaces are moved to another link afterwards, which
// reorders that link's Ifaces.
func multiAccess(seed int64, n int) *routing.Domain {
	rng := rand.New(rand.NewSource(seed))
	net := netem.New(sim.NewScheduler(seed))
	d := routing.NewDomain(net)
	links := make([]*netem.Link, n/3)
	for i := range links {
		links[i] = net.NewLink(fmt.Sprintf("M%d", i), 0, time.Millisecond)
		d.AssignPrefix(links[i], ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%x::", i+1)))
	}
	var ifcs []*netem.Interface
	for i := 0; i < n; i++ {
		r := net.NewNode(fmt.Sprintf("R%d", i), true)
		for k := rng.Intn(3); k >= 0; k-- {
			ifcs = append(ifcs, r.AddInterface(links[rng.Intn(len(links))]))
		}
	}
	for k := 0; k < n/5; k++ {
		net.Move(ifcs[rng.Intn(len(ifcs))], links[rng.Intn(len(links))])
	}
	return d
}

// TestSPFMatchesReference checks the dense-index tables against the
// reference SPF on every generator family at three sizes and two seeds,
// built sequentially and in 4 kernel regions (split links), and on random
// multi-access networks, where several routers share a link and
// equal-cost ties are common. Hosts sit on some links and are never
// transit. Random router interfaces are then downed and the tables
// recomputed, twice; tables taken before a Recompute must keep answering
// as they did, as engines keep the table they were built with. Finally a
// link added after a table was computed must read as unreachable from
// that table.
func TestSPFMatchesReference(t *testing.T) {
	split := 0
	for _, family := range topo.Families() {
		for _, size := range []int{5, 24, 90} {
			if family == "fig1" && size != 5 {
				continue // fixed network: the router count is ignored
			}
			for _, seed := range []int64{1, 2} {
				for _, shards := range []int{0, 4} {
					name := fmt.Sprintf("%s-r%d-seed%d-shards%d", family, size, seed, shards)
					t.Run(name, func(t *testing.T) {
						d := routerNet(t, family, size, seed, shards).Dom
						for _, l := range d.Net.Links {
							if l.Peer() != nil {
								split++
							}
						}
						checkDomain(t, d, seed)
					})
				}
			}
		}
	}
	if split == 0 {
		t.Error("no sharded build split a link")
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("multiaccess-r30-seed%d", seed), func(t *testing.T) {
			checkDomain(t, multiAccess(seed, 30), seed)
		})
	}
}

func checkDomain(t *testing.T, d *routing.Domain, seed int64) {
	for i, l := range d.Net.Links {
		if i%3 == 0 && l.Peer() == nil {
			h := d.Net.NewNode(fmt.Sprintf("h%d", i), false)
			h.AddInterface(l)
		}
	}
	d.Recompute()
	first := takeSnapshot(d)
	first.check(t, d, "built")

	rng := rand.New(rand.NewSource(seed))
	var snaps []snapshot
	for round := 0; round < 2; round++ {
		for _, n := range d.Net.Nodes {
			if !n.IsRouter {
				continue
			}
			for _, ifc := range n.Ifaces {
				ifc.SetUp(rng.Float64() >= 0.2)
			}
		}
		d.Recompute()
		s := takeSnapshot(d)
		s.check(t, d, fmt.Sprintf("downed round %d", round))
		snaps = append(snaps, s)
	}
	first.check(t, d, "built, after later recomputes")
	snaps[0].check(t, d, "downed round 0, after a later recompute")

	// A link numbered after a table was computed is unreachable from it
	// even once a router attaches to it; a fresh Recompute reaches it.
	late := d.Net.NewLink("late", 0, 0)
	d.AssignPrefix(late, ipv6.MustParseAddr("2001:db9:1::"))
	var r0 *netem.Node
	for _, n := range d.Net.Nodes {
		if n.IsRouter {
			r0 = n
			break
		}
	}
	r0.AddInterface(late)
	dst := ipv6.MustParseAddr("2001:db9:1::99")
	for _, s := range append(snaps, first) {
		for r, rt := range s {
			if _, _, ok := rt.table.NextHop(dst); ok {
				t.Fatalf("%s: table computed before link %s was added routes to it", r.Name, late.Name)
			}
		}
	}
	d.Recompute()
	takeSnapshot(d).check(t, d, "late link")
	if _, _, ok := d.TableOf(r0).NextHop(dst); !ok {
		t.Fatalf("%s: attached late link unreachable after Recompute", r0.Name)
	}
}
