package netem

import (
	"fmt"

	"mip6mcast/internal/ipv6"
)

// Interface is a node's point of attachment to a link.
type Interface struct {
	ID    int // globally unique (the simulator's stand-in for a MAC)
	Index int // index within the owning node
	Node  *Node
	Link  *Link

	linkLocal ipv6.Addr
	addrs     map[ipv6.Addr]bool // configured unicast addresses
	groups    map[ipv6.Addr]int  // multicast filter with reference counts
	proxies   map[ipv6.Addr]bool // proxy-ND entries (home agent intercept)
	allMcast  bool               // multicast routers receive everything
	up        bool
}

func newInterface(node *Node, id, index int) *Interface {
	ifc := &Interface{
		ID: id, Index: index, Node: node,
		addrs:   map[ipv6.Addr]bool{},
		groups:  map[ipv6.Addr]int{},
		proxies: map[ipv6.Addr]bool{},
	}
	// Every IPv6 interface has a link-local address derived from its
	// interface identifier, and listens on all-nodes.
	ifc.linkLocal = ipv6.LinkLocalFromIID(uint64(id) + 1)
	return ifc
}

// LinkLocal returns the interface's fe80::/64 address.
func (ifc *Interface) LinkLocal() ipv6.Addr { return ifc.linkLocal }

// Up reports whether the interface is attached to a link and enabled.
func (ifc *Interface) Up() bool { return ifc.up }

// SetUp enables or disables the interface without detaching it — the
// failure-injection hook for crashing and recovering nodes. A downed
// interface neither sends, receives, nor answers address resolution.
func (ifc *Interface) SetUp(v bool) {
	if ifc.Link == nil {
		return // detached; Up stays false until reattached
	}
	ifc.up = v
}

// AddAddr configures a unicast address.
func (ifc *Interface) AddAddr(a ipv6.Addr) { ifc.addrs[a] = true }

// RemoveAddr removes a configured unicast address.
func (ifc *Interface) RemoveAddr(a ipv6.Addr) { delete(ifc.addrs, a) }

// HasAddr reports whether a is one of the interface's addresses (link-local
// included).
func (ifc *Interface) HasAddr(a ipv6.Addr) bool {
	return a == ifc.linkLocal || ifc.addrs[a]
}

// Addrs returns the configured unicast addresses (excluding link-local), in
// unspecified order.
func (ifc *Interface) Addrs() []ipv6.Addr {
	out := make([]ipv6.Addr, 0, len(ifc.addrs))
	for a := range ifc.addrs {
		out = append(out, a)
	}
	return out
}

// GlobalAddr returns one non-link-local address, or the link-local address
// if none is configured.
func (ifc *Interface) GlobalAddr() ipv6.Addr {
	var best ipv6.Addr
	found := false
	for a := range ifc.addrs {
		if !found || a.Less(best) {
			best, found = a, true
		}
	}
	if !found {
		return ifc.linkLocal
	}
	return best
}

// JoinGroup adds a multicast group to the receive filter (reference
// counted; multiple protocol modules may join the same group).
func (ifc *Interface) JoinGroup(g ipv6.Addr) { ifc.groups[g]++ }

// LeaveGroup drops one reference to a multicast group.
func (ifc *Interface) LeaveGroup(g ipv6.Addr) {
	if ifc.groups[g] > 1 {
		ifc.groups[g]--
	} else {
		delete(ifc.groups, g)
	}
}

// AcceptsGroup reports whether the receive filter passes frames addressed
// to g.
func (ifc *Interface) AcceptsGroup(g ipv6.Addr) bool {
	if g == ipv6.AllNodes || ifc.allMcast {
		return true
	}
	return ifc.groups[g] > 0
}

// AddProxy installs a proxy-ND entry: on-link resolution of a resolves to
// this interface while the true owner is absent. Mobile IPv6 home agents
// use this to intercept packets addressed to away-from-home mobile nodes.
func (ifc *Interface) AddProxy(a ipv6.Addr) { ifc.proxies[a] = true }

// RemoveProxy removes a proxy-ND entry.
func (ifc *Interface) RemoveProxy(a ipv6.Addr) { delete(ifc.proxies, a) }

// Send encodes and transmits pkt on the interface's link. Multicast
// destinations are link-layer multicast; unicast destinations are resolved
// on-link ("perfect ND", honoring proxies). Sending to an unresolvable
// unicast destination silently drops the frame, as a real link would after
// ND failure.
//
// Send keeps pkt: the link hands it to every receiver and tap of the
// transmission (see Link.transmit), so pkt must not change afterwards.
func (ifc *Interface) Send(pkt *ipv6.Packet) error { return ifc.send(pkt, 0) }

// Forward sends a received datagram on, as a router does: rx.Pkt itself,
// with a hop limit on the wire one below the one it arrived with
// (rx.HopLimit()). Nothing is copied: the receivers get rx.Pkt and a hop
// count one higher (RxPacket.Hops). Destinations resolve as for Send. The
// caller checks that rx.HopLimit() is above 1.
func (ifc *Interface) Forward(rx RxPacket) error { return ifc.send(rx.Pkt, rx.Hops+1) }

// send transmits pkt as it leaves its hops-th router.
func (ifc *Interface) send(pkt *ipv6.Packet, hops uint8) error {
	if !ifc.up || ifc.Link == nil {
		return fmt.Errorf("netem: %s: send on downed interface", ifc)
	}
	var l2dst *Interface
	if !pkt.Hdr.Dst.IsMulticast() {
		l2dst = ifc.Link.Resolve(pkt.Hdr.Dst)
		if l2dst == nil {
			// Unresolvable on-link destination: ND failure, nothing sent.
			return nil
		}
	}
	return ifc.transmitPacket(pkt, hops, l2dst)
}

// SendVia transmits pkt with an explicit next-hop address: the frame is
// L2-addressed to the interface owning nextHop but carries pkt's original
// IPv6 destination. Like Send, it keeps pkt.
func (ifc *Interface) SendVia(pkt *ipv6.Packet, nextHop ipv6.Addr) error {
	return ifc.sendVia(pkt, 0, nextHop)
}

// sendVia is SendVia for pkt as it leaves its hops-th router; unicast
// forwarding through routers uses it.
func (ifc *Interface) sendVia(pkt *ipv6.Packet, hops uint8, nextHop ipv6.Addr) error {
	if !ifc.up || ifc.Link == nil {
		return fmt.Errorf("netem: %s: send on downed interface", ifc)
	}
	l2dst := ifc.Link.Resolve(nextHop)
	if l2dst == nil {
		return nil // next hop unreachable; frame lost
	}
	return ifc.transmitPacket(pkt, hops, l2dst)
}

// transmitPacket encodes and puts pkt on the wire as it leaves its
// hops-th router (its hop limit on the wire hops below its own), applying
// the MTU: a too-big packet is fragmented if this node originates it (hops
// 0 and a source address of its own: IPv6 source fragmentation, honoring
// any learned path MTU toward the destination); otherwise it is dropped
// and, for unicast, an ICMPv6 Packet Too Big goes back to the source
// (routers never fragment — RFC 2463 §3.2 path-MTU discovery). pkt, or
// each fragment made from it, is what the receivers get, so it is kept,
// never copied: a forwarded packet goes on as it came, its hop count
// beside it.
func (ifc *Interface) transmitPacket(pkt *ipv6.Packet, hops uint8, l2dst *Interface) error {
	net := ifc.Node.Net
	region := ifc.Node.Sched().Region()
	frame, err := pkt.EncodeAppendHops(net.getFrameBuf(region), hops)
	if err != nil {
		net.putFrameBuf(region, frame)
		return fmt.Errorf("netem: %s: %w", ifc, err)
	}
	mtu := ifc.Link.MTU
	// Whether this node is the packet's source (HasAddr probes every
	// interface's addresses) matters only under a learned path MTU or for a
	// frame over the MTU, so it is asked only then.
	if pm, ok := ifc.Node.pathMTU[pkt.Hdr.Dst]; ok && (mtu <= 0 || pm < mtu) && ifc.Node.HasAddr(pkt.Hdr.Src) {
		// Honor a learned path MTU even when the local link is wider.
		mtu = pm
	}
	if mtu <= 0 || len(frame) <= mtu {
		if ifc.Link.transmit(ifc, frame, pkt, l2dst) {
			net.putFrameBuf(region, frame)
		}
		return nil
	}
	if hops > 0 || !ifc.Node.HasAddr(pkt.Hdr.Src) {
		// The frame escapes into the ICMP error's invoking-packet copy;
		// leave this (rare) buffer to the garbage collector.
		ifc.Node.drop("too-big")
		ifc.Node.sendPacketTooBig(pkt, frame, mtu)
		return nil
	}
	net.putFrameBuf(region, frame)
	frags, err := ipv6.Fragment(pkt, mtu, ifc.Node.nextFragID())
	if err != nil {
		ifc.Node.drop("too-big")
		return nil
	}
	for _, f := range frags {
		fb, err := f.EncodeAppend(net.getFrameBuf(region))
		if err != nil {
			net.putFrameBuf(region, fb)
			return fmt.Errorf("netem: %s: %w", ifc, err)
		}
		if ifc.Link.transmit(ifc, fb, f, l2dst) {
			net.putFrameBuf(region, fb)
		}
	}
	return nil
}

func (ifc *Interface) String() string {
	link := "detached"
	if ifc.Link != nil {
		link = ifc.Link.Name
	}
	return fmt.Sprintf("%s.if%d@%s", ifc.Node.Name, ifc.Index, link)
}
