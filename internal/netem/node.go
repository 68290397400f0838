package netem

import (
	"fmt"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// RxPacket is a received datagram handed to protocol modules.
type RxPacket struct {
	Iface *Interface
	// Pkt is the datagram. It is shared: every receiver of the same link
	// transmission (and every tap) sees the same *ipv6.Packet, which is
	// the very packet its sender handed to a link whenever the frame
	// decodes equal to it, and its payload may be the bytes the datagram's
	// origin allocated. Its Hdr.HopLimit is the one its sender set: the
	// hop limit the frame carried is HopLimit(). Handlers must treat it as
	// immutable: to change a header field, copy the Packet value; to
	// change bytes, Clone. To forward it, Interface.Forward the RxPacket;
	// to tunnel it, ipv6.EncapsulateHops it with Hops. Whatever keeps it
	// keeps Hops too.
	Pkt *ipv6.Packet
	// Hops counts the routers that have forwarded Pkt since its sender
	// handed it to a link: each lowered the hop limit on the wire by one
	// and sent Pkt itself on. For a packet a tunnel delivered, it is the
	// count Pkt carried into the tunnel (ipv6.Packet.InnerHops).
	Hops uint8
	// LocalDst reports whether the packet is addressed to this node (one of
	// its unicast addresses or a multicast group an interface accepts).
	LocalDst bool
	// ViaTunnel marks packets re-delivered by a tunnel endpoint after
	// decapsulation. Link-scoped protocol machines (MLD, NDP) must ignore
	// them; Mobile IPv6 multicast services key off them.
	ViaTunnel bool
}

// HopLimit returns the hop limit the datagram arrived with: Pkt's, less
// one for every router that forwarded it.
func (rx RxPacket) HopLimit() uint8 { return rx.Pkt.Hdr.HopLimit - rx.Hops }

// ProtoHandler processes a locally-delivered packet of one upper-layer
// protocol (PIM, IPv6-in-IPv6...). ICMPv6 and UDP have their own
// dispatch: see ICMPHandler and UDPHandler.
type ProtoHandler func(rx RxPacket)

// ICMPHandler processes one locally-delivered ICMPv6 message of the type it
// was registered for. The node parsed and checksum-verified the message
// once for all of that type's handlers; m's byte fields alias rx.Pkt's
// shared payload and must not be changed.
type ICMPHandler func(rx RxPacket, m icmpv6.Msg)

// OptionHandler processes one destination option of a locally-delivered
// packet, before upper-layer dispatch. It reports whether it recognized the
// option. Mobile IPv6 modules register handlers for the binding options.
type OptionHandler func(rx RxPacket, opt ipv6.Option) bool

// UDPHandler receives datagrams for a bound UDP port. u.Payload shares
// rx.Pkt's payload and must not be changed.
type UDPHandler func(rx RxPacket, u ipv6.UDP)

// MulticastForwarder is the multicast routing engine's hook: every routable
// (greater-than-link-scope) multicast packet arriving at a router is offered
// to it, regardless of local delivery. PIM-DM implements this.
type MulticastForwarder interface {
	ForwardMulticast(rx RxPacket)
}

// RouteTable answers unicast next-hop queries. The routing package
// implements it from a link-state view of the topology.
type RouteTable interface {
	// NextHop returns the outgoing interface and next-hop address toward
	// dst. For an on-link destination the next hop is dst itself.
	NextHop(dst ipv6.Addr) (ifc *Interface, via ipv6.Addr, ok bool)
}

// Node is a simulated IPv6 host or router.
type Node struct {
	Name     string
	Net      *Network
	IsRouter bool
	Ifaces   []*Interface

	// Routes is consulted for unicast forwarding (routers) and origination
	// (hosts). Installed by the routing package or test code.
	Routes RouteTable

	// Forwarder receives routable multicast packets on routers.
	Forwarder MulticastForwarder

	// Drops counts discarded packets by reason, for diagnostics and tests.
	Drops map[string]int

	protoHandlers   map[uint8][]ProtoHandler
	icmpHandlers    []icmpBinding // registration order
	optionHandlers  []OptionHandler
	udpSocks        map[uint16][]UDPHandler
	attachListeners []func(*Interface)
	mcastListeners  []func(RxPacket)
	forwardHooks    []func(RxPacket) bool

	fragID  uint32
	reasm   *ipv6.Reassembler
	pathMTU map[ipv6.Addr]int // learned from Packet Too Big errors

	// sched, when non-nil, is the region scheduler every timer and delivery
	// for this node runs on in a sharded run; nil means the network's root
	// scheduler (see Sched).
	sched *sim.Scheduler

	// logicalAddrs are addresses the node answers to without configuring
	// them on any interface (a mobile node's home address while away: it
	// must accept routing-header deliveries to it, but must not answer
	// on-link address resolution for it on the foreign link).
	logicalAddrs map[ipv6.Addr]bool

	// PacketTooBigSent counts ICMPv6 errors this node originated.
	PacketTooBigSent uint64
}

// nextFragID returns a fresh fragment identification value.
func (n *Node) nextFragID() uint32 {
	n.fragID++
	return n.fragID
}

// sendPacketTooBig reports a forwarding drop back to the packet's source
// (unicast destinations only; multicast path-MTU discovery is out of scope
// for the workloads this system studies).
func (n *Node) sendPacketTooBig(pkt *ipv6.Packet, frame []byte, mtu int) {
	if pkt.Hdr.Dst.IsMulticast() || pkt.Hdr.Src.IsUnspecified() || pkt.Hdr.Src.IsLinkLocalUnicast() {
		return
	}
	// Never report errors about ICMPv6 errors (types < 128).
	if pkt.Proto == ipv6.ProtoICMPv6 && len(pkt.Payload) > 0 && pkt.Payload[0] < 128 {
		return
	}
	var src ipv6.Addr
	for _, ifc := range n.Ifaces {
		if ifc.Up() {
			if a := ifc.GlobalAddr(); !a.IsLinkLocalUnicast() {
				src = a
				break
			}
		}
	}
	if src.IsUnspecified() {
		return
	}
	ptb := icmpv6.PacketTooBig{MTU: uint32(mtu), Invoking: frame}
	out := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: pkt.Hdr.Src, HopLimit: ipv6.DefaultHopLimit},
		Proto:   ipv6.ProtoICMPv6,
		Payload: icmpv6.Marshal(src, pkt.Hdr.Src, ptb),
	}
	n.PacketTooBigSent++
	_ = n.Output(out)
}

// handlePacketTooBig updates the path-MTU cache from a received Packet Too
// Big error.
func (n *Node) handlePacketTooBig(rx RxPacket) {
	p := rx.Pkt
	msg, err := icmpv6.Parse(p.Hdr.Src, p.Hdr.Dst, p.Payload)
	if err != nil || len(msg.PTB.Invoking) < ipv6.HeaderLen {
		return
	}
	// The original destination sits at bytes 24..40 of the invoking
	// packet's header.
	var dst ipv6.Addr
	copy(dst[:], msg.PTB.Invoking[24:40])
	mtu := int(msg.PTB.MTU)
	if mtu < ipv6.MinMTU {
		mtu = ipv6.MinMTU
	}
	if n.pathMTU == nil {
		n.pathMTU = map[ipv6.Addr]int{}
	}
	if cur, exists := n.pathMTU[dst]; !exists || mtu < cur {
		n.pathMTU[dst] = mtu
	}
}

// PathMTU returns the learned path MTU toward dst (0 if none learned).
func (n *Node) PathMTU(dst ipv6.Addr) int { return n.pathMTU[dst] }

// reassembler lazily creates the node's fragment reassembler.
func (n *Node) reassembler() *ipv6.Reassembler {
	if n.reasm == nil {
		n.reasm = ipv6.NewReassembler()
	}
	return n.reasm
}

// Sched returns the scheduler driving this node: its region scheduler in a
// sharded run, else the network's root scheduler. Protocol modules arm every
// timer through it, which is what keeps all of a node's state inside one
// region.
func (n *Node) Sched() *sim.Scheduler {
	if n.sched != nil {
		return n.sched
	}
	return n.Net.Sched
}

// SetSched assigns the node to a region scheduler (kernel wiring; must
// happen before any protocol module captures the scheduler).
func (n *Node) SetSched(s *sim.Scheduler) { n.sched = s }

// AddInterface creates a new interface and attaches it to link. Router
// interfaces accept all multicast traffic.
func (n *Node) AddInterface(link *Link) *Interface {
	ifc := newInterface(n, n.Net.nextIfaceID, len(n.Ifaces))
	n.Net.nextIfaceID++
	ifc.allMcast = n.IsRouter
	n.Ifaces = append(n.Ifaces, ifc)
	link.attach(ifc)
	return ifc
}

// HandleProto registers a handler for locally-delivered packets of the given
// upper-layer protocol. Multiple handlers may register; all run. ICMPv6
// and UDP are dispatched by HandleICMP and BindUDP instead.
func (n *Node) HandleProto(proto uint8, h ProtoHandler) {
	if proto == ipv6.ProtoICMPv6 || proto == ipv6.ProtoUDP {
		panic(fmt.Sprintf("netem: %s: HandleProto(%d): use HandleICMP or BindUDP", n.Name, proto))
	}
	n.protoHandlers[proto] = append(n.protoHandlers[proto], h)
}

// icmpBinding is one HandleICMP registration.
type icmpBinding struct {
	typ uint8
	h   ICMPHandler
}

// HandleICMP registers h for locally-delivered ICMPv6 messages of type typ.
// The node parses and checksums each message once, then runs only its
// type's handlers, in registration order; a message that does not parse
// reaches none, and a type no handler is registered for is never parsed.
// Packet Too Big is the node's own: it updates the path-MTU cache and is
// offered to no handler.
func (n *Node) HandleICMP(typ uint8, h ICMPHandler) {
	n.icmpHandlers = append(n.icmpHandlers, icmpBinding{typ: typ, h: h})
}

// HandleOptions registers a destination-option processor.
func (n *Node) HandleOptions(h OptionHandler) {
	n.optionHandlers = append(n.optionHandlers, h)
}

// BindUDP attaches a handler to a UDP destination port. Handlers stack:
// every handler bound to the port sees each datagram (multiple protocol
// modules may share a port and filter by content).
func (n *Node) BindUDP(port uint16, h UDPHandler) {
	n.udpSocks[port] = append(n.udpSocks[port], h)
}

// OnMulticastLocal registers a callback invoked for every multicast packet
// the node accepts locally, regardless of upper-layer protocol. Mobile IPv6
// home agents use it to pick up group traffic they must tunnel to mobile
// nodes.
func (n *Node) OnMulticastLocal(fn func(RxPacket)) {
	n.mcastListeners = append(n.mcastListeners, fn)
}

// OnForward registers an intercept hook on the unicast forwarding path. A
// hook returning true consumes the packet (no further forwarding). Mobile
// IPv6 home agents intercept packets addressed to away-from-home mobile
// nodes here.
func (n *Node) OnForward(fn func(RxPacket) bool) {
	n.forwardHooks = append(n.forwardHooks, fn)
}

// DeliverLocal runs the node's local delivery path on a packet — used by
// tunnel endpoints to dispatch a decapsulated inner packet as if it had
// been received for this node.
func (n *Node) DeliverLocal(rx RxPacket) {
	rx.LocalDst = true
	n.deliverLocal(rx)
}

// OnAttach registers a callback invoked whenever one of the node's
// interfaces is attached to a (new) link — the hook NDP/Mobile IPv6 modules
// use for movement detection bootstrap.
func (n *Node) OnAttach(fn func(*Interface)) {
	n.attachListeners = append(n.attachListeners, fn)
}

// HasAddr reports whether any interface owns addr, or addr is registered
// as a logical address.
func (n *Node) HasAddr(addr ipv6.Addr) bool {
	for _, ifc := range n.Ifaces {
		if ifc.HasAddr(addr) {
			return true
		}
	}
	return n.logicalAddrs[addr]
}

// AddLogicalAddr registers an address the node accepts as its own without
// owning it on-link (no address resolution answers).
func (n *Node) AddLogicalAddr(a ipv6.Addr) {
	if n.logicalAddrs == nil {
		n.logicalAddrs = map[ipv6.Addr]bool{}
	}
	n.logicalAddrs[a] = true
}

// RemoveLogicalAddr drops a logical address.
func (n *Node) RemoveLogicalAddr(a ipv6.Addr) { delete(n.logicalAddrs, a) }

func (n *Node) drop(reason string) {
	if n.Drops == nil {
		n.Drops = map[string]int{}
	}
	n.Drops[reason]++
}

// receive is the input path for raw frames: decode, then dispatch. The
// link fast path decodes once at transmit and calls receivePacket directly;
// this wrapper serves tests and the undecodable-frame fallback.
func (n *Node) receive(ifc *Interface, frame []byte, l2unicast bool) {
	pkt, err := ipv6.Decode(frame)
	if err != nil {
		n.drop("malformed")
		return
	}
	n.receivePacket(ifc, pkt, 0, l2unicast)
}

// receivePacket dispatches a decoded datagram that arrived on ifc, hops
// routers after its sender handed it to a link (see RxPacket.Hops). pkt
// may be shared with sibling receivers of the same transmission and must
// not be mutated. l2unicast reports whether the frame was link-layer
// addressed specifically to this interface.
func (n *Node) receivePacket(ifc *Interface, pkt *ipv6.Packet, hops uint8, l2unicast bool) {
	dst := pkt.Hdr.Dst

	local := false
	switch {
	case dst.IsMulticast():
		// The L2 filter already passed it; local protocol delivery is
		// appropriate for anything the interface accepts (routers accept
		// everything — their protocol modules filter further).
		local = ifc.AcceptsGroup(dst)
	default:
		local = n.HasAddr(dst)
	}

	rx := RxPacket{Iface: ifc, Pkt: pkt, Hops: hops, LocalDst: local}

	if local {
		if pkt.Fragment != nil {
			// Only the destination reassembles (forwarding paths below
			// carry fragments onward untouched). Each new reassembly
			// buffer gets a one-shot expiry sweep (a perpetual ticker
			// would keep the event queue alive forever).
			s := n.Sched()
			r := n.reassembler()
			before := r.Pending()
			whole := r.Offer(pkt, hops, time.Duration(s.Now()))
			if whole != nil {
				n.deliverLocal(RxPacket{Iface: ifc, Pkt: whole, LocalDst: true})
			} else if r.Pending() > before {
				s.Schedule(r.Timeout+time.Second, func() {
					r.Expire(time.Duration(s.Now()))
				})
			}
		} else {
			n.deliverLocal(rx)
		}
	}

	// Multicast routing: routers offer every routable multicast packet to
	// the forwarding engine, independent of local delivery.
	if n.IsRouter && dst.IsMulticast() && !dst.IsLinkScopedMulticast() && dst.MulticastScope() != 1 && n.Forwarder != nil {
		n.Forwarder.ForwardMulticast(rx)
	}

	// Unicast forwarding. Intercept hooks run first — a Mobile IPv6 home
	// agent owning a proxy-ND entry attracts frames for addresses that are
	// not its own, whether or not it is also a router.
	if !local && !dst.IsMulticast() {
		for _, hook := range n.forwardHooks {
			if hook(rx) {
				return
			}
		}
		if !n.IsRouter {
			n.drop("not-mine")
			return
		}
		n.forwardUnicast(rx)
	}
}

func (n *Node) deliverLocal(rx RxPacket) {
	// Destination options are processed by the final destination before
	// upper-layer dispatch (RFC 2460 §4.6). Unknown options with the 00
	// "skip" action semantics are ignored; this system only generates
	// options it understands.
	for _, opt := range rx.Pkt.DestOpts {
		for _, h := range n.optionHandlers {
			if h(rx, opt) {
				break
			}
		}
	}
	// Routing header (type 0) processing, RFC 2460 §4.4: a packet
	// addressed to us with segments left advances to the next address —
	// delivered upward if that is also ours, forwarded otherwise. Mobile
	// IPv6 uses this as the lighter alternative to encapsulation for
	// home-agent-to-mobile-node delivery.
	if r := rx.Pkt.Routing; r != nil && r.SegmentsLeft > 0 {
		// Only the routing header, the destination and the hop limit
		// change: copy those, share the rest of the packet.
		adv := *rx.Pkt
		adv.Hdr.HopLimit = rx.HopLimit()
		rh := *r
		rh.Addresses = append([]ipv6.Addr(nil), r.Addresses...)
		adv.Routing = &rh
		i := len(rh.Addresses) - int(rh.SegmentsLeft)
		next := rh.Addresses[i]
		rh.Addresses[i] = adv.Hdr.Dst
		adv.Hdr.Dst = next
		rh.SegmentsLeft--
		if n.HasAddr(next) {
			n.deliverLocal(RxPacket{Iface: rx.Iface, Pkt: &adv, LocalDst: true, ViaTunnel: rx.ViaTunnel})
		} else if adv.Hdr.HopLimit > 1 {
			adv.Hdr.HopLimit--
			_ = n.Output(&adv)
		}
		return
	}
	if rx.Pkt.Hdr.Dst.IsMulticast() {
		for _, fn := range n.mcastListeners {
			fn(rx)
		}
	}
	switch rx.Pkt.Proto {
	case ipv6.ProtoICMPv6:
		n.deliverICMP(rx)
	case ipv6.ProtoUDP:
		u, err := ipv6.ParseUDP(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
		if err != nil {
			n.drop("bad-udp")
			return
		}
		if hs := n.udpSocks[u.DstPort]; len(hs) > 0 {
			for _, h := range hs {
				h(rx, u)
			}
		} else {
			n.drop("udp-unbound")
		}
	default:
		hs := n.protoHandlers[rx.Pkt.Proto]
		if len(hs) == 0 {
			n.drop("proto-unbound")
			return
		}
		for _, h := range hs {
			h(rx)
		}
	}
}

// deliverICMP demultiplexes a locally-delivered ICMPv6 packet by type (see
// HandleICMP). A node with no ICMPv6 handler at all drops it as
// "proto-unbound"; a type the node has handlers for others of is ignored.
func (n *Node) deliverICMP(rx RxPacket) {
	p := rx.Pkt.Payload
	if len(p) > 0 && p[0] == icmpv6.TypePacketTooBig {
		n.handlePacketTooBig(rx)
		return
	}
	if len(n.icmpHandlers) == 0 {
		n.drop("proto-unbound")
		return
	}
	if len(p) == 0 || !n.handlesICMP(p[0]) {
		return
	}
	m, err := icmpv6.Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, p)
	if err != nil {
		return
	}
	for _, b := range n.icmpHandlers {
		if b.typ == m.Type {
			b.h(rx, m)
		}
	}
}

// handlesICMP reports whether a handler is registered for ICMPv6 type typ.
func (n *Node) handlesICMP(typ uint8) bool {
	for _, b := range n.icmpHandlers {
		if b.typ == typ {
			return true
		}
	}
	return false
}

// forwardUnicast sends a datagram on toward its destination: the packet
// received itself, one hop further (see Interface.Forward).
func (n *Node) forwardUnicast(rx RxPacket) {
	pkt := rx.Pkt
	if pkt.Hdr.Dst.IsLinkLocalUnicast() || pkt.Hdr.Src.IsLinkLocalUnicast() {
		n.drop("link-local-scope")
		return
	}
	if rx.HopLimit() <= 1 {
		n.drop("hop-limit")
		return
	}
	if n.Routes == nil {
		n.drop("no-route")
		return
	}
	out, via, ok := n.Routes.NextHop(pkt.Hdr.Dst)
	if !ok || out == nil || !out.Up() {
		n.drop("no-route")
		return
	}
	if err := out.sendVia(pkt, rx.Hops+1, via); err != nil {
		n.drop("tx-error")
	}
}

// Output originates a unicast packet from this node, consulting the route
// table (or direct on-link resolution as a fallback). Multicast and
// link-local destinations need an explicit interface; use OutputOn.
func (n *Node) Output(pkt *ipv6.Packet) error {
	dst := pkt.Hdr.Dst
	if dst.IsMulticast() || dst.IsLinkLocalUnicast() {
		return fmt.Errorf("netem: %s: Output of link-scoped destination %s needs OutputOn", n.Name, dst)
	}
	if n.Routes != nil {
		if out, via, ok := n.Routes.NextHop(dst); ok && out != nil && out.Up() {
			return out.SendVia(pkt, via)
		}
	}
	// Fallback: direct on-link resolution.
	for _, ifc := range n.Ifaces {
		if ifc.Up() && ifc.Link.Resolve(dst) != nil {
			return ifc.Send(pkt)
		}
	}
	n.drop("no-route")
	return nil
}

// OutputOn transmits pkt on a specific interface (link-scoped protocols:
// MLD, NDP, PIM hellos, on-link delivery).
func (n *Node) OutputOn(ifc *Interface, pkt *ipv6.Packet) error {
	return ifc.Send(pkt)
}

// Crash simulates a node failure: every interface goes down and all
// volatile state — protocol handler registrations, forwarding engine,
// multicast receive filters, proxy-ND entries, reassembly buffers, learned
// path MTUs, logical addresses — is discarded, as a reboot would. Static
// configuration survives: interface addresses, link attachment, the route
// table (this simulation's routing is static configuration, not a dynamic
// IGP) and the allMcast flag (hardware mode derived from IsRouter).
//
// Protocol modules own timers that reference the dead state; callers must
// Close them (pimdm.Engine.Close, mld.Router.Close, ...) alongside Crash so
// no timer owned by the dead incarnation ever fires.
func (n *Node) Crash() {
	for _, ifc := range n.Ifaces {
		ifc.SetUp(false)
		ifc.groups = map[ipv6.Addr]int{}
		ifc.proxies = map[ipv6.Addr]bool{}
	}
	n.Forwarder = nil
	n.protoHandlers = map[uint8][]ProtoHandler{}
	n.icmpHandlers = nil
	n.optionHandlers = nil
	n.udpSocks = map[uint16][]UDPHandler{}
	n.attachListeners = nil
	n.mcastListeners = nil
	n.forwardHooks = nil
	n.reasm = nil
	n.pathMTU = nil
	n.logicalAddrs = nil
}

// Restart brings a crashed node's interfaces back up. The node revives with
// empty protocol state; callers re-instantiate the protocol modules (which
// re-register handlers, rejoin groups and restart timers).
func (n *Node) Restart() {
	for _, ifc := range n.Ifaces {
		ifc.SetUp(true)
	}
}

func (n *Node) String() string { return n.Name }
