// Package routing provides the unicast routing substrate: shortest-path
// tables for routers (the role an IGP plays under PIM-DM, whose RPF checks
// are "protocol independent" — they use whatever unicast routes exist), and
// dynamic default routes for hosts.
//
// A Domain assigns each link a /64 prefix and a dense link number, and
// computes, for every router, a next-hop entry per link by breadth-first
// search over the router/link bipartite graph (all links cost 1). A router
// table is a row of 4-byte entries indexed by link number: a hop count and
// an index into the router's short first-hop list, which holds the
// outgoing interface and next-hop address of each branch the search
// leaves the router by. A lookup is one probe of the prefix map plus two
// slice indexes. One Recompute builds every router's rows out of two
// shared blocks. Tables implement netem.RouteTable.
package routing

import (
	"encoding/binary"
	"fmt"
	"math"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
)

// Domain is the routed internetwork: prefix assignments plus computed
// tables.
type Domain struct {
	Net *netem.Network

	// Every canonical link the domain has seen gets a number, once: both
	// halves of a split link share it, and it never changes, so a table
	// computed earlier keeps indexing the right links.
	linkNum  map[*netem.Link]int32
	links    []linkInfo       // by link number
	byPrefix map[uint64]int32 // upper 64 bits of a /64 -> link number
	tables   map[*netem.Node]*RouterTable
}

type linkInfo struct {
	link      *netem.Link // canonical identity
	prefix    ipv6.Addr
	hasPrefix bool
}

// NewDomain creates an empty routing domain over net.
func NewDomain(net *netem.Network) *Domain {
	return &Domain{
		Net:      net,
		linkNum:  map[*netem.Link]int32{},
		byPrefix: map[uint64]int32{},
		tables:   map[*netem.Node]*RouterTable{},
	}
}

// prefixKey is the /64 of a as a map key.
func prefixKey(a ipv6.Addr) uint64 { return binary.BigEndian.Uint64(a[:8]) }

// number returns l's link number, assigning the next one on first sight.
func (d *Domain) number(l *netem.Link) int32 {
	l = l.Canon()
	if i, ok := d.linkNum[l]; ok {
		return i
	}
	i := int32(len(d.links))
	d.linkNum[l] = i
	d.links = append(d.links, linkInfo{link: l})
	return i
}

// AssignPrefix gives link a /64 prefix. Unicast routing resolves
// destinations by longest (here: only) prefix match against these.
func (d *Domain) AssignPrefix(l *netem.Link, prefix ipv6.Addr) {
	i := d.number(l)
	p := prefix.Prefix(64)
	d.links[i].prefix, d.links[i].hasPrefix = p, true
	d.byPrefix[prefixKey(p)] = i
}

// PrefixOf returns the /64 assigned to l. Both halves of a split
// cross-region link resolve to the one prefix assigned to its canonical
// identity.
func (d *Domain) PrefixOf(l *netem.Link) (ipv6.Addr, bool) {
	i, ok := d.linkNum[l.Canon()]
	if !ok {
		return ipv6.Addr{}, false
	}
	return d.links[i].prefix, d.links[i].hasPrefix
}

// LinkFor returns the link whose prefix covers addr, or nil. This sits on
// the unicast forwarding path (every NextHop resolves the destination's
// link), so it is a single map probe on the /64 — a linear prefix scan
// would make forwarding O(links) and dominate generated topologies with
// hundreds of routers.
func (d *Domain) LinkFor(addr ipv6.Addr) *netem.Link {
	if i, ok := d.byPrefix[prefixKey(addr)]; ok {
		return d.links[i].link
	}
	return nil
}

// Recompute rebuilds all router tables from the current topology and
// installs them on the router nodes. Hosts get dynamic tables (installed
// once; they track movement automatically). Tables from an earlier call
// stay valid and keep answering from the topology they were computed on.
// The tables of one call are rows of two blocks allocated here: routers ×
// links entries, and first-hop lists of firstHopBound slots per router.
// Entries hold 16-bit hop counts and first-hop indexes, so Recompute
// panics on more routers, or a longer first-hop list, than they can count.
func (d *Domain) Recompute() {
	routers := make([]*netem.Node, 0, len(d.Net.Nodes))
	ifcs := 0
	for _, n := range d.Net.Nodes {
		if n.IsRouter {
			routers = append(routers, n)
			ifcs += len(n.Ifaces)
		} else if n.Routes == nil {
			n.Routes = &HostTable{Domain: d, Node: n}
		}
	}
	if len(routers) > math.MaxUint16 {
		panic(fmt.Sprintf("routing: %d routers; 16-bit hop counts span at most %d", len(routers), math.MaxUint16))
	}
	g := d.buildGraph(routers, ifcs)
	nFirst := 0
	for i, r := range routers {
		nFirst += g.firstHopBound(int32(i), r)
	}
	links := len(d.links)
	entries := make([]entry, len(routers)*links)
	firsts := make([]firstHop, nFirst)
	tables := make([]RouterTable, len(routers))
	seen := make([]int32, len(routers))
	queue := make([]hop, 0, len(routers))
	for i, r := range routers {
		n := g.firstHopBound(int32(i), r)
		t := &tables[i]
		*t = RouterTable{
			node:    r,
			domain:  d,
			entries: entries[i*links : (i+1)*links : (i+1)*links],
			firsts:  firsts[:1:n], // slot 0 is the unreachable entries' zero first hop
		}
		firsts = firsts[n:]
		queue = g.spf(int32(i), t, seen, queue[:0])
		d.tables[r] = t
		r.Routes = t
	}
}

// TableOf returns the computed table for a router.
func (d *Domain) TableOf(n *netem.Node) *RouterTable { return d.tables[n] }

// AttachHost installs the dynamic table for one (possibly mobile) host
// node. Hosts are never transit, so adding one cannot change any router's
// SPF result — builders attaching thousands of hosts use this instead of a
// full Recompute, which is O(routers × topology) per call.
func (d *Domain) AttachHost(n *netem.Node) {
	if n.IsRouter {
		d.Recompute()
		return
	}
	if n.Routes == nil {
		n.Routes = &HostTable{Domain: d, Node: n}
	}
}

// graph is the router/link bipartite graph in compressed sparse row form,
// built once per Recompute. Router i's up interfaces, in Ifaces order, are
// ifcs[ifcAt[i]:ifcAt[i+1]]. Link j's router interfaces, up or down, are
// nbrs[nbrAt[j]:nbrAt[j+1]]: for a split link, the canonical half's Ifaces
// followed by the far half's, since the neighbor sits on the far half.
type graph struct {
	ifcAt []int32
	ifcs  []routerIfc
	nbrAt []int32
	nbrs  []linkIfc
}

type routerIfc struct {
	ifc  *netem.Interface
	link int32
}

type linkIfc struct {
	ifc    *netem.Interface
	router int32
}

// buildGraph numbers any new links the routers attach to and builds their
// adjacency; ifcs is the routers' interface count, which bounds both lists.
func (d *Domain) buildGraph(routers []*netem.Node, ifcs int) *graph {
	g := &graph{
		ifcAt: make([]int32, 1, len(routers)+1),
		ifcs:  make([]routerIfc, 0, ifcs),
		nbrs:  make([]linkIfc, 0, ifcs),
	}
	index := make(map[*netem.Node]int32, len(routers))
	for i, r := range routers {
		index[r] = int32(i)
		for _, ifc := range r.Ifaces {
			if ifc.Up() {
				g.ifcs = append(g.ifcs, routerIfc{ifc: ifc, link: d.number(ifc.Link)})
			}
		}
		g.ifcAt = append(g.ifcAt, int32(len(g.ifcs)))
	}
	g.nbrAt = make([]int32, 1, len(d.links)+1)
	for _, li := range d.links {
		for _, half := range [2]*netem.Link{li.link, li.link.Peer()} {
			if half == nil {
				continue
			}
			for _, ifc := range half.Ifaces {
				if ifc.Node.IsRouter {
					g.nbrs = append(g.nbrs, linkIfc{ifc: ifc, router: index[ifc.Node]})
				}
			}
		}
		g.nbrAt = append(g.nbrAt, int32(len(g.nbrs)))
	}
	return g
}

// firstHopBound bounds the first-hop list of router i: slot 0, then per
// up interface one slot per router interface on its link. The
// interface's own slot is its on-link first hop, and every first-hop
// neighbor it reaches sits on one of the others. It panics if the list
// could outgrow a 16-bit index.
func (g *graph) firstHopBound(i int32, r *netem.Node) int {
	n := 1
	for _, ri := range g.ifcs[g.ifcAt[i]:g.ifcAt[i+1]] {
		n += int(g.nbrAt[ri.link+1] - g.nbrAt[ri.link])
	}
	if n > math.MaxUint16+1 {
		panic(fmt.Sprintf("routing: router %s may have %d first hops; a 16-bit index holds %d", r.Name, n-1, math.MaxUint16))
	}
	return n
}

// hop is a router on the BFS frontier with the branch that reached it:
// the index in the root's first-hop list of the root's interface the
// branch leaves by and the first-hop neighbor on it.
type hop struct {
	router int32
	dist   uint16
	first  uint16
}

// spf fills t's entries with its router's next hop toward every link it
// reaches, appending one first hop per root interface and per first-hop
// neighbor to t.firsts. A link's entry is written when the BFS first
// crosses it, by the first of the expanding router's up interfaces in
// Ifaces order, and every router on the link then joins the frontier in
// the link's interface order, so equal-cost ties resolve the same way on
// every call. Hosts are not transit. seen marks visited routers with
// root+1. The queue's storage is shared by all roots of one Recompute and
// returned for the next.
func (g *graph) spf(root int32, t *RouterTable, seen []int32, queue []hop) []hop {
	mark := root + 1
	seen[root] = mark
	queue = append(queue, hop{router: root})
	for q := 0; q < len(queue); q++ {
		cur := queue[q]
		for _, ri := range g.ifcs[g.ifcAt[cur.router]:g.ifcAt[cur.router+1]] {
			j := ri.link
			if t.entries[j].first != 0 {
				continue
			}
			next := hop{dist: cur.dist + 1, first: cur.first}
			if q == 0 { // the root's own link: deliver on-link
				t.firsts = append(t.firsts, firstHop{out: ri.ifc})
				next.first = uint16(len(t.firsts) - 1)
			}
			t.entries[j] = entry{first: next.first, hops: next.dist}
			for _, nb := range g.nbrs[g.nbrAt[j]:g.nbrAt[j+1]] {
				if seen[nb.router] == mark {
					continue
				}
				seen[nb.router] = mark
				if q == 0 { // a first-hop neighbor
					t.firsts = append(t.firsts, firstHop{out: ri.ifc, via: nb.ifc.LinkLocal()})
					next.first = uint16(len(t.firsts) - 1)
				}
				next.router = nb.router
				queue = append(queue, next)
			}
		}
	}
	return queue
}

// entry is a router's route toward one link prefix: first indexes the
// router's first-hop list, and is 0 for a link the router cannot reach.
type entry struct {
	first uint16
	hops  uint16 // router-to-link distance in links
}

// firstHop is where a branch of a router's BFS leaves the router.
type firstHop struct {
	out *netem.Interface
	via ipv6.Addr // zero for directly-attached (deliver to dst itself)
}

// RouterTable is the SPF result for one router.
type RouterTable struct {
	node    *netem.Node
	domain  *Domain
	entries []entry    // by link number
	firsts  []firstHop // by entry.first; slot 0 is zero
}

// lookup returns the first hop and distance toward the link whose prefix
// covers a. A link numbered after the table was computed lies past the
// entries' end: unreachable.
func (t *RouterTable) lookup(a ipv6.Addr) (firstHop, int, bool) {
	i, ok := t.domain.byPrefix[prefixKey(a)]
	if !ok || int(i) >= len(t.entries) {
		return firstHop{}, 0, false
	}
	e := t.entries[i]
	return t.firsts[e.first], int(e.hops), e.first != 0
}

// NextHop implements netem.RouteTable.
func (t *RouterTable) NextHop(dst ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	f, _, ok := t.lookup(dst)
	if !ok {
		return nil, ipv6.Addr{}, false
	}
	via := f.via
	if via.IsUnspecified() {
		via = dst // directly attached: deliver on-link
	}
	return f.out, via, true
}

// HopsTo returns the router's distance (in links) to the link covering dst,
// used by PIM assert metrics. ok is false if unreachable.
func (t *RouterTable) HopsTo(dst ipv6.Addr) (int, bool) {
	_, hops, ok := t.lookup(dst)
	return hops, ok
}

// RPFInterface returns the interface this router uses to reach src — PIM's
// reverse-path-forwarding check — together with the upstream neighbor
// address (zero if src is directly attached).
func (t *RouterTable) RPFInterface(src ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	f, _, ok := t.lookup(src)
	return f.out, f.via, ok
}

// HostTable routes for a (possibly mobile) host: destinations covered by
// the prefix of the currently attached link are on-link; everything else
// goes to a router on the current link (lowest link-local address wins, as
// a stand-in for default-router selection). Because it evaluates against
// the *current* attachment, it follows the host through moves with no
// recomputation.
type HostTable struct {
	Domain *Domain
	Node   *netem.Node
}

// NextHop implements netem.RouteTable.
func (h *HostTable) NextHop(dst ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	for _, ifc := range h.Node.Ifaces {
		if !ifc.Up() || ifc.Link == nil {
			continue
		}
		if p, ok := h.Domain.PrefixOf(ifc.Link); ok && dst.MatchesPrefix(p, 64) {
			return ifc, dst, true
		}
	}
	// Default route: first router found on an attached link, lowest
	// link-local address for determinism.
	for _, ifc := range h.Node.Ifaces {
		if !ifc.Up() || ifc.Link == nil {
			continue
		}
		var best ipv6.Addr
		found := false
		for _, nifc := range ifc.Link.Ifaces {
			if nifc.Node.IsRouter && nifc.Up() {
				if !found || nifc.LinkLocal().Less(best) {
					best, found = nifc.LinkLocal(), true
				}
			}
		}
		if found {
			return ifc, best, true
		}
	}
	return nil, ipv6.Addr{}, false
}

func (t *RouterTable) String() string {
	n := 0
	for _, e := range t.entries {
		if e.first != 0 {
			n++
		}
	}
	return fmt.Sprintf("table(%s, %d prefixes)", t.node.Name, n)
}
