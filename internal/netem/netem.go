// Package netem emulates the network the protocols run on: multi-access
// links (broadcast domains) with bandwidth and propagation delay, node
// interfaces with multicast filtering, and nodes with a protocol dispatch
// stack. Frames on links are encoded IPv6 datagrams, so the ipv6 codecs are
// on the data path: a link encodes each transmission once and decodes it
// once, and every receiver and tap shares the decoded packet, which is the
// sent packet itself whenever the frame decodes equal to it (DESIGN.md
// §5.1). A router forwards the packet it received, not a copy: the hop
// limit, the only header field forwarding changes, travels beside the
// packet as a hop count (RxPacket.Hops), and the link encodes the frame
// with the hop limit it implies. A tunnel entry wraps the packet it
// received the same way, with the count in the outer packet
// (ipv6.Packet.InnerHops).
//
// Layer 2 is modeled minimally: a frame is addressed either to a specific
// interface (unicast) or to a group (multicast filtering at the receiver).
// Address resolution is "perfect ND": a sender can resolve any on-link IPv6
// address to its interface, including proxy entries — which is exactly the
// hook Mobile IPv6 home agents use (proxy Neighbor Discovery) to intercept
// packets for mobile nodes that are away from home.
package netem

import (
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// Network owns the simulated topology and its scheduler.
type Network struct {
	Sched *sim.Scheduler
	Links []*Link
	Nodes []*Node

	nextIfaceID int

	// frameBufs recycles encode buffers: transmitPacket encodes into one,
	// and once Link.transmit has decoded the frame and scheduled delivery
	// of the shared packet, the bytes are dead and the buffer returns
	// here. One independent pool per region — each pool is only touched by
	// its region's (single-threaded) scheduler, so no locking; one-region
	// networks use pool 0.
	frameBufs [][][]byte
}

// getFrameBuf returns an empty encode buffer (recycled when available).
func (n *Network) getFrameBuf(region int) []byte {
	pool := n.frameBufs[region]
	if l := len(pool); l > 0 {
		b := pool[l-1]
		pool[l-1] = nil
		n.frameBufs[region] = pool[:l-1]
		return b[:0]
	}
	return make([]byte, 0, 2048)
}

// putFrameBuf recycles an encode buffer. Callers must be certain nothing
// retains the bytes (Link.transmit reports this).
func (n *Network) putFrameBuf(region int, b []byte) {
	n.frameBufs[region] = append(n.frameBufs[region], b)
}

// New creates an empty network driven by the given scheduler.
func New(s *sim.Scheduler) *Network {
	return &Network{Sched: s, frameBufs: make([][][]byte, 1)}
}

// SetRegions sizes the per-region frame-buffer pools for a sharded run.
// Kernel wiring calls it once, before any traffic, with the region count;
// every node's scheduler region index must stay below it.
func (n *Network) SetRegions(count int) {
	for len(n.frameBufs) < count {
		n.frameBufs = append(n.frameBufs, nil)
	}
}

// NewLink adds a link. bandwidth is in bits/second (0 means infinitely
// fast); delay is the one-way propagation delay.
func (n *Network) NewLink(name string, bandwidth int64, delay time.Duration) *Link {
	l := &Link{Name: name, Bandwidth: bandwidth, Delay: delay, net: n}
	n.Links = append(n.Links, l)
	return l
}

// NewNode adds a node. Router nodes forward unicast packets and accept all
// multicast traffic on their interfaces (they are multicast routers).
func (n *Network) NewNode(name string, router bool) *Node {
	nd := &Node{
		Name:          name,
		Net:           n,
		IsRouter:      router,
		protoHandlers: map[uint8][]ProtoHandler{},
		udpSocks:      map[uint16][]UDPHandler{},
	}
	n.Nodes = append(n.Nodes, nd)
	return nd
}

// TxEvent describes one frame transmission onto a link, as observed by taps.
// Frame aliases a recycled encode buffer: it is valid only for the duration
// of the tap call — taps must copy anything they keep. Pkt is the decoded
// frame shared with every receiver (the sent packet itself whenever the
// frame decodes equal to it apart from the hop limit) and must not be
// mutated; Hops is the receivers' RxPacket.Hops.
type TxEvent struct {
	Time  sim.Time
	Link  *Link
	From  *Interface
	Frame []byte       // encoded bytes as sent (valid only during the tap)
	Pkt   *ipv6.Packet // decoded once for all taps and receivers
	Hops  uint8        // Pkt.EncodeAppendHops(nil, Hops) is Frame
}

// HopLimit returns the hop limit the frame carries.
func (ev TxEvent) HopLimit() uint8 { return ev.Pkt.Hdr.HopLimit - ev.Hops }

// Tap observes every transmission on a link (used by metrics and tracing).
type Tap func(ev TxEvent)

// Link is a multi-access broadcast domain.
type Link struct {
	Name      string
	Bandwidth int64 // bits per second; 0 = no serialization delay
	Delay     time.Duration
	// LossRate is the independent per-receiver probability that a frame is
	// not delivered (failure injection; drawn from the simulation's
	// deterministic random source). Transmissions are still counted and
	// tapped — the bytes were spent on the wire.
	LossRate float64
	// MTU bounds frame size (0 = unlimited). Per IPv6 semantics, only a
	// packet's source may fragment; a node asked to transmit a too-big
	// packet it did not originate drops it ("too-big").
	MTU int

	// Impair, when non-nil, applies the fault-injection model (jitter,
	// reordering, duplication, burst loss, corruption) to every delivery.
	// nil costs nothing: no RNG draws, no allocations beyond the normal
	// delivery path.
	Impair *Impairment

	Ifaces []*Interface
	Taps   []Tap

	// Delivery accounting. Every per-receiver delivery attempt ends in
	// exactly one of two ways — it is put on the wire toward the receiver
	// (Delivered) or it is dropped by a loss process (LostDeliveries) — so
	// AttemptedDeliveries == Delivered + LostDeliveries holds at all times.
	// Duplicated deliveries count as additional attempts. Note Delivered is
	// charged when the frame enters flight: a receiver whose interface goes
	// down mid-flight still cost the wire its bytes.
	AttemptedDeliveries uint64
	Delivered           uint64
	DeliveredBytes      uint64

	// LostDeliveries counts receiver-side losses injected by LossRate and
	// by the Impairment loss model.
	LostDeliveries uint64

	// Impairment event counters (diagnostics; all zero when Impair is nil).
	DupDeliveries       uint64
	ReorderedDeliveries uint64
	CorruptedDeliveries uint64

	// DownDrops counts whole transmissions discarded because the link
	// medium was down (Link.SetUp(false)).
	DownDrops uint64

	// Raw counters (all traffic classes; classified accounting is done by
	// metrics taps).
	TxFrames uint64
	TxBytes  uint64

	net       *Network
	busyUntil sim.Time
	down      bool
	geBad     bool // Gilbert–Elliott channel state (true = bad/bursty)

	// sched, when non-nil, is the region scheduler driving this link's
	// transmissions in a sharded run (see sim.Kernel); nil means the
	// network's root scheduler.
	sched *sim.Scheduler
	// xpeer pairs two half-links into one cross-region point-to-point
	// link: each region owns one half — its attached interface, taps,
	// serialization state and counters — so window-parallel execution
	// shares nothing. Deliveries toward the far half travel as
	// cross-region messages (sim.Scheduler.Post). nil for ordinary links.
	xpeer *Link
	// second marks the half created by SplitLink; Canon resolves to the
	// original, so link-keyed lookups (prefixes, route tables) have one
	// canonical identity per link.
	second bool
}

// scheduler returns the region scheduler driving this link.
func (l *Link) scheduler() *sim.Scheduler {
	if l.sched != nil {
		return l.sched
	}
	return l.net.Sched
}

// Sched returns the region scheduler driving this link (the network's root
// scheduler when the link is not region-assigned).
func (l *Link) Sched() *sim.Scheduler { return l.scheduler() }

// SetSched assigns the link to a region scheduler (kernel wiring).
func (l *Link) SetSched(s *sim.Scheduler) { l.sched = s }

// Peer returns the far half of a split cross-region link, or nil.
func (l *Link) Peer() *Link { return l.xpeer }

// AttachedIfaces counts the interfaces attached to the link across both
// halves of a split link; on an ordinary link it is just len(l.Ifaces).
// Protocol code that wants "is this a point-to-point link?" must use this
// rather than len(l.Ifaces), which sees only one side of a split link.
func (l *Link) AttachedIfaces() int {
	n := len(l.Ifaces)
	if l.xpeer != nil {
		n += len(l.xpeer.Ifaces)
	}
	return n
}

// Canon returns the link's canonical identity: itself for ordinary links
// and primary halves, the primary for the far half of a split link.
func (l *Link) Canon() *Link {
	if l.second {
		return l.xpeer
	}
	return l
}

// SplitLink creates (or returns) the far half of a cross-region
// point-to-point link. The halves share name, bandwidth, delay and MTU but
// nothing mutable: each side serializes, draws loss, counts and taps its own
// transmissions, so the two regions never race. Modeling-wise the split link
// is full-duplex (per-direction serialization) and its burst-loss channel
// state advances independently per direction — acceptable for point-to-point
// core links, which is the only kind a partition ever cuts. The peer half is
// appended to n.Links so link-wide sweeps (impairment scripts, taps,
// accounting) cover both directions; LinkByName still finds the primary.
func (n *Network) SplitLink(l *Link) *Link {
	if l.xpeer != nil {
		return l.xpeer
	}
	p := &Link{
		Name: l.Name, Bandwidth: l.Bandwidth, Delay: l.Delay,
		LossRate: l.LossRate, MTU: l.MTU, net: n, xpeer: l, second: true,
	}
	l.xpeer = p
	n.Links = append(n.Links, p)
	return p
}

// SetUp raises or cuts the link medium (cable cut, dead switch — use
// Interface.SetUp for single-port failures). While down, every transmit is
// discarded at the sender and counted in DownDrops; frames already in
// flight when the cut happens still arrive (propagation is not recalled).
// On a split cross-region link both halves cut together (one medium). Only
// safe at single-threaded moments (setup, or a kernel barrier).
func (l *Link) SetUp(up bool) {
	l.down = !up
	if l.xpeer != nil {
		l.xpeer.down = !up
	}
}

// Up reports whether the link medium is up.
func (l *Link) Up() bool { return !l.down }

// AddTap registers a transmission observer.
func (l *Link) AddTap(t Tap) { l.Taps = append(l.Taps, t) }

// Resolve finds the interface on this link owning addr, either as a
// configured address or as a proxy entry (Mobile IPv6 home agent proxy ND).
// Proxy entries lose to real owners, matching ND behavior when the real node
// is present.
func (l *Link) Resolve(addr ipv6.Addr) *Interface {
	var proxy *Interface
	halves := [2][]*Interface{l.Ifaces}
	if l.xpeer != nil {
		// Resolution spans both halves of a split link: the far side's
		// interfaces and addresses are static router configuration, safe to
		// read from any region.
		halves[1] = l.xpeer.Ifaces
	}
	for _, ifaces := range halves {
		for _, ifc := range ifaces {
			if !ifc.up {
				continue
			}
			if ifc.HasAddr(addr) {
				return ifc
			}
			if ifc.proxies[addr] {
				proxy = ifc
			}
		}
	}
	return proxy
}

// transmit schedules delivery of frame, the encoding of sent, to receivers
// on the link. l2dst is nil for multicast/broadcast frames (delivered
// subject to each interface's multicast filter) or the specific destination
// interface for unicast.
//
// The frame is decoded exactly once, here, against sent
// (ipv6.DecodeShared): when it decodes equal to sent apart from a lowered
// hop limit, as it does unless sent was built in a non-canonical form,
// taps and every receiver get sent itself with the hop count the frame
// was encoded with, and the decode allocates nothing; otherwise they share
// one new decoded *ipv6.Packet that still borrows sent's equal parts, with
// hop count 0. Either way a datagram forwarded hop by hop is the one
// packet its origin allocated at every hop, a datagram carried through a
// tunnel keeps its payload, and an N-receiver multicast delivery costs one
// parse instead of N. The return value reports whether the caller may
// recycle the frame buffer: true unless the frame failed to decode, in
// which case delivery falls back to carrying (and re-parsing) the raw
// bytes.
func (l *Link) transmit(from *Interface, frame []byte, sent *ipv6.Packet, l2dst *Interface) (recyclable bool) {
	s := l.scheduler()
	now := s.Now()

	if l.down {
		l.DownDrops++
		return true
	}

	l.TxFrames++
	l.TxBytes += uint64(len(frame))
	frameLen := uint64(len(frame))

	pkt, hops, decErr := ipv6.DecodeShared(frame, sent)
	if decErr == nil && len(l.Taps) > 0 {
		ev := TxEvent{Time: now, Link: l, From: from, Frame: frame, Pkt: pkt, Hops: hops}
		for _, t := range l.Taps {
			t(ev)
		}
	}

	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var txTime time.Duration
	if l.Bandwidth > 0 {
		txTime = time.Duration(int64(len(frame)) * 8 * int64(time.Second) / l.Bandwidth)
	}
	l.busyUntil = start.Add(txTime)
	arrive := l.busyUntil.Add(l.Delay)

	// Burst-loss channel state advances once per transmission, before the
	// per-receiver loop, so every receiver of one frame sees the same
	// channel condition (a burst hits the whole broadcast domain).
	imp := l.Impair
	var geLoss float64
	if imp != nil {
		geLoss = imp.stepBurst(l, s.RandFor("netem-impair"))
	}

	unicast := l2dst != nil
	var raw *rawFrame
	if decErr != nil {
		raw = &rawFrame{data: frame}
	}
	// Delivery events carry the "link" handler tag: wall time spent
	// receiving and dispatching frames is attributed to the wire, while
	// timers armed by protocol handlers retag themselves (see sim.PushTag).
	prevTag := s.PushTag("link")
	deliver := func(ifaces []*Interface, home *Link) {
		for _, ifc := range ifaces {
			if ifc == from || !ifc.up {
				continue
			}
			if l2dst != nil && ifc != l2dst {
				continue
			}
			l.AttemptedDeliveries++
			if l.LossRate > 0 && s.RandFor("netem-loss").Float64() < l.LossRate {
				l.LostDeliveries++
				continue
			}
			if geLoss > 0 && s.RandFor("netem-loss").Float64() < geLoss {
				l.LostDeliveries++
				continue
			}
			l.Delivered++
			l.DeliveredBytes += frameLen
			if imp != nil {
				l.impairedDeliver(ifc, home, arrive, frameLen, pkt, hops, frame, raw, unicast)
				continue
			}
			if raw == nil {
				l.deliverPkt(ifc, home, arrive, pkt, hops, unicast)
			} else {
				l.deliverRaw(ifc, home, arrive, raw, unicast)
			}
		}
	}
	deliver(l.Ifaces, l)
	if l.xpeer != nil {
		deliver(l.xpeer.Ifaces, l.xpeer)
	}
	s.PopTag(prevTag)
	return decErr == nil
}

// deliverPkt arms delivery of the shared packet, hops routers from its
// sender, at time at. home is the (half-)link the receiver is attached to;
// for a receiver on the far half of a split link, the event travels as a
// cross-region message and the packet, often the sender's own, crosses
// regions as immutable shared data.
func (l *Link) deliverPkt(ifc *Interface, home *Link, at sim.Time, pkt *ipv6.Packet, hops uint8, unicast bool) {
	l.scheduler().Deliver(ifc.Node.Sched(), at, sim.Delivery{To: frameReceiver{}, A: ifc, B: home, C: pkt, Flag: unicast, N: hops})
}

// rawFrame carries bytes that did not decode at transmit to a receiver,
// which decodes them again and counts the failure as a "malformed" drop.
type rawFrame struct{ data []byte }

// deliverRaw arms delivery of a raw frame.
func (l *Link) deliverRaw(ifc *Interface, home *Link, at sim.Time, raw *rawFrame, unicast bool) {
	l.scheduler().Deliver(ifc.Node.Sched(), at, sim.Delivery{To: frameReceiver{}, A: ifc, B: home, C: raw, Flag: unicast})
}

// frameReceiver runs the delivery events deliverPkt and deliverRaw arm: A
// is the receiving *Interface, B its home *Link, C the *ipv6.Packet (or
// *rawFrame), Flag whether the frame was link-layer unicast, N the
// packet's hop count. A receiver that went down or moved off the link
// while the frame was in flight misses it.
type frameReceiver struct{}

func (frameReceiver) Receive(d sim.Delivery) {
	ifc := d.A.(*Interface)
	if !ifc.up || ifc.Link != d.B.(*Link) {
		return
	}
	switch c := d.C.(type) {
	case *ipv6.Packet:
		ifc.Node.receivePacket(ifc, c, d.N, d.Flag)
	case *rawFrame:
		ifc.Node.receive(ifc, c.data, d.Flag)
	}
}

// Attach connects iface to this link (used by Node.AddInterface and by
// mobility moves).
func (l *Link) attach(ifc *Interface) {
	l.Ifaces = append(l.Ifaces, ifc)
	ifc.Link = l
	ifc.up = true
}

func (l *Link) detach(ifc *Interface) {
	for i, x := range l.Ifaces {
		if x == ifc {
			l.Ifaces = append(l.Ifaces[:i], l.Ifaces[i+1:]...)
			break
		}
	}
	ifc.Link = nil
	ifc.up = false
}

// Move detaches iface from its current link and attaches it to dst,
// notifying the node's attachment listeners (movement detection hooks).
// Addresses with link-local or dynamic scope are NOT cleared here; protocol
// modules (NDP/SLAAC, Mobile IPv6) decide what to reconfigure.
func (n *Network) Move(ifc *Interface, dst *Link) {
	if ifc.Link == dst {
		return
	}
	if dst.scheduler() != ifc.Node.Sched() {
		// A node's pending timers and protocol state live in its region's
		// scheduler; moving its attachment into another region would tear
		// the timeline apart. Region-aware workloads must confine each
		// mobile node's roaming to its home region (see topo.WorkloadSpec).
		panic(fmt.Sprintf("netem: Move %s to %s crosses shard regions", ifc, dst.Name))
	}
	if ifc.Link != nil {
		ifc.Link.detach(ifc)
	}
	dst.attach(ifc)
	for _, fn := range ifc.Node.attachListeners {
		fn(ifc)
	}
}

// LinkByName returns the named link or nil.
func (n *Network) LinkByName(name string) *Link {
	for _, l := range n.Links {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// NodeByName returns the named node or nil.
func (n *Network) NodeByName(name string) *Node {
	for _, nd := range n.Nodes {
		if nd.Name == name {
			return nd
		}
	}
	return nil
}

func (n *Network) String() string {
	return fmt.Sprintf("network(%d nodes, %d links)", len(n.Nodes), len(n.Links))
}
