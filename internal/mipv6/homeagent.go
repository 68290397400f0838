package mipv6

import (
	"sort"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// TunnelMode selects how the home agent delivers intercepted unicast
// packets to the mobile node (draft §8.8: "using an IPv6 routing header or
// using IPv6 encapsulation"; the paper's reference [6] is the
// encapsulation spec).
type TunnelMode uint8

// Tunnel modes.
const (
	// TunnelEncapsulate wraps the packet in an outer IPv6 header
	// (RFC 2473): 40 bytes per packet, works for any inner packet.
	TunnelEncapsulate TunnelMode = iota
	// TunnelRoutingHeader routes via the care-of address with a type 0
	// routing header carrying the home address: 24 bytes per packet, but
	// only applicable to plain unicast packets (multicast and packets
	// that already carry extension headers fall back to encapsulation).
	TunnelRoutingHeader
)

// HAConfig configures a home agent.
type HAConfig struct {
	// MaxLifetime caps granted binding lifetimes (draft: home agents may
	// grant less than requested).
	MaxLifetime time.Duration
	// Mode selects routing-header or encapsulation delivery for
	// intercepted unicast traffic.
	Mode TunnelMode
	// RequestRefresh makes the home agent send a Binding Request (the
	// draft's fourth destination option) when a binding approaches expiry
	// without a refresh, prompting the mobile node to re-register.
	RequestRefresh bool
	// RequestRefreshAt is the lifetime fraction at which the request goes
	// out (default 0.75).
	RequestRefreshAt float64
}

// DefaultHAConfig returns draft-faithful defaults.
func DefaultHAConfig() HAConfig {
	return HAConfig{
		MaxLifetime:      256 * time.Second,
		RequestRefresh:   true,
		RequestRefreshAt: 0.75,
	}
}

// BindingEvent reports binding-cache changes to subscribers (the core
// package reacts to Multicast Group List changes here).
type BindingEvent struct {
	Home    ipv6.Addr
	CareOf  ipv6.Addr
	Groups  []ipv6.Addr // from the Multicast Group List sub-option
	Present bool        // false on deregistration or lifetime expiry
}

// Binding is one binding-cache entry.
type Binding struct {
	Home   ipv6.Addr
	CareOf ipv6.Addr
	Seq    uint16
	Groups []ipv6.Addr

	expiry     *sim.Timer
	refreshReq *sim.Timer // Binding Request schedule
}

// HomeAgent is the HA role on a node attached to the home link. The node
// may or may not also be a multicast router; both of the paper's §4.3.2
// variants build on this type.
type HomeAgent struct {
	Node *netem.Node
	// HomeIface is the node's interface on the home link (where proxy
	// intercept happens).
	HomeIface *netem.Interface
	// Address is the HA's global address mobile nodes register with.
	Address ipv6.Addr
	Config  HAConfig

	// OnBinding observes cache changes. May be nil.
	OnBinding func(BindingEvent)
	// Obs, when non-nil, records per-home-address binding-cache state.
	Obs *obs.Recorder
	// OnDetunneled, when set, sees every validated detunneled inner packet
	// before default handling; returning true consumes it. The core
	// package uses it to terminate tunneled MLD Reports at a PIM-capable
	// home agent (the paper's first §4.3.2 variant).
	OnDetunneled func(b *Binding, inner *ipv6.Packet) bool

	bindings         map[ipv6.Addr]*Binding // by home address
	bindingListeners []func(BindingEvent)
	// sorted is the binding cache in home-address order, rebuilt on first
	// use after an entry is added or removed (nil = stale). The multicast
	// fan-out walks it for every datagram it tunnels.
	sorted []*Binding

	// Stats — the paper's "system load" criterion for home agents.
	PacketsIntercepted  uint64
	PacketsTunneled     uint64 // encapsulations toward mobile nodes
	PacketsDetunneled   uint64 // decapsulations from mobile nodes
	BindingUpdates      uint64
	MulticastTunneled   uint64 // multicast datagrams delivered via tunnel
	BindingRequestsSent uint64

	closed bool
}

// Close tears the home agent down for a node crash: every binding's expiry
// and refresh timers are stopped and the cache is dropped without firing
// deregistration notifications (the consumers are being torn down too).
// Proxy-ND entries are cleared by Node.Crash. A closed HA ignores all
// input; build a fresh HomeAgent on restart — mobile nodes must
// re-register, which is exactly the recovery the chaos experiments study.
func (ha *HomeAgent) Close() {
	if ha.closed {
		return
	}
	ha.closed = true
	for _, b := range ha.bindings {
		b.expiry.Stop()
		if b.refreshReq != nil {
			b.refreshReq.Stop()
		}
		ha.HomeIface.RemoveProxy(b.Home)
	}
	ha.bindings = map[ipv6.Addr]*Binding{}
	ha.sorted = nil
}

// NewHomeAgent installs the HA role on node for the home link reached via
// homeIface. address must be one of the node's addresses on that link.
func NewHomeAgent(node *netem.Node, homeIface *netem.Interface, address ipv6.Addr, cfg HAConfig) *HomeAgent {
	ha := &HomeAgent{
		Node:      node,
		HomeIface: homeIface,
		Address:   address,
		Config:    cfg,
		bindings:  map[ipv6.Addr]*Binding{},
	}
	node.HandleOptions(ha.handleOption)
	node.HandleProto(ipv6.ProtoIPv6, ha.handleReverseTunnel)
	node.OnForward(ha.intercept)
	node.OnMulticastLocal(ha.multicastLocal)
	return ha
}

// AttachRecorder starts feeding binding-cache transitions to rec and
// records current bindings as a baseline (sorted by home address).
func (ha *HomeAgent) AttachRecorder(rec *obs.Recorder) {
	ha.Obs = rec
	if rec == nil {
		return
	}
	for _, b := range ha.Bindings() {
		rec.State(ha.Node.Name, "ha "+b.Home.String(), "bound", "careof="+b.CareOf.String())
	}
}

// Bindings returns the current cache entries sorted by home address.
func (ha *HomeAgent) Bindings() []*Binding {
	return append(make([]*Binding, 0, len(ha.bindings)), ha.sortedBindings()...)
}

// sortedBindings returns the cached home-address order of the binding
// cache. The slice is shared: callers must not modify it.
func (ha *HomeAgent) sortedBindings() []*Binding {
	if ha.sorted == nil && len(ha.bindings) > 0 {
		out := make([]*Binding, 0, len(ha.bindings))
		for _, b := range ha.bindings {
			out = append(out, b)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Home.Less(out[j].Home) })
		ha.sorted = out
	}
	return ha.sorted
}

// BindingCount reports the number of cached bindings without allocating
// (telemetry samplers call it every tick; Bindings sorts into a fresh
// slice each call).
func (ha *HomeAgent) BindingCount() int { return len(ha.bindings) }

// BindingFor returns the cache entry for a home address.
func (ha *HomeAgent) BindingFor(home ipv6.Addr) (*Binding, bool) {
	b, ok := ha.bindings[home]
	return b, ok
}

// handleOption processes Binding Updates addressed to this home agent.
func (ha *HomeAgent) handleOption(rx netem.RxPacket, opt ipv6.Option) bool {
	if ha.closed || opt.Type != ipv6.OptBindingUpdate {
		return false
	}
	if !ha.Node.HasAddr(rx.Pkt.Hdr.Dst) || rx.Pkt.Hdr.Dst != ha.Address {
		return false // not for this HA instance
	}
	bu, err := ipv6.ParseBindingUpdate(opt)
	if err != nil || !bu.HomeReg {
		return true
	}
	s := ha.Node.Sched()
	prevTag := s.PushTag("mip")
	defer s.PopTag(prevTag)
	ha.BindingUpdates++

	// Home address: from the Home Address option if present, else source.
	home := rx.Pkt.Hdr.Src
	if hopt, ok := ipv6.FindOption(rx.Pkt.DestOpts, ipv6.OptHomeAddress); ok {
		if h, err := ipv6.ParseHomeAddress(hopt); err == nil {
			home = h.HomeAddress
		}
	}
	careOf := rx.Pkt.Hdr.Src
	if bu.AltCareOf != nil {
		careOf = *bu.AltCareOf
	}

	// Home address must be on the home link's prefix.
	status := ipv6.BindingAckAccepted
	onHomePrefix := false
	for _, a := range ha.HomeIface.Addrs() {
		if home.MatchesPrefix(a, 64) {
			onHomePrefix = true
			break
		}
	}
	if !onHomePrefix {
		status = ipv6.BindingAckNotHomeSubnet
	}

	lifetime := time.Duration(bu.Lifetime) * time.Second
	if lifetime > ha.Config.MaxLifetime {
		lifetime = ha.Config.MaxLifetime
	}

	if status == ipv6.BindingAckAccepted {
		if lifetime == 0 || careOf == home {
			ha.removeBinding(home)
		} else {
			ha.upsertBinding(home, careOf, bu.Sequence, bu.GroupList, lifetime)
		}
	}

	if bu.Ack {
		ha.sendAck(careOf, home, &ipv6.BindingAck{
			Status:   status,
			Sequence: bu.Sequence,
			Lifetime: uint32(lifetime / time.Second),
			Refresh:  uint32(lifetime / time.Second / 2),
		})
	}
	return true
}

func (ha *HomeAgent) upsertBinding(home, careOf ipv6.Addr, seq uint16, groups []ipv6.Addr, lifetime time.Duration) {
	b, ok := ha.bindings[home]
	if !ok {
		b = &Binding{Home: home}
		h := home
		b.expiry = sim.NewTimer(ha.Node.Sched(), func() { ha.removeBinding(h) })
		b.refreshReq = sim.NewTimer(ha.Node.Sched(), func() { ha.sendBindingRequest(h) })
		ha.bindings[home] = b
		ha.sorted = nil
		ha.HomeIface.AddProxy(home)
	}
	b.CareOf = careOf
	b.Seq = seq
	// A Binding Update without the Multicast Group List sub-option leaves
	// the recorded list unchanged (absence means "no change"; an empty but
	// present sub-option clears it). This lets the tunneled-MLD variant
	// manage the list out of band via SetBindingGroups.
	if groups != nil {
		b.Groups = append([]ipv6.Addr(nil), groups...)
	}
	if ha.Obs != nil {
		ha.Obs.State(ha.Node.Name, "ha "+home.String(), "bound", "careof="+careOf.String())
	}
	b.expiry.Reset(lifetime)
	if ha.Config.RequestRefresh {
		at := ha.Config.RequestRefreshAt
		if at <= 0 || at >= 1 {
			at = 0.75
		}
		b.refreshReq.Reset(time.Duration(float64(lifetime) * at))
	}
	ha.notify(b, true)
}

// sendBindingRequest prompts a mobile node whose binding is approaching
// expiry to refresh it.
func (ha *HomeAgent) sendBindingRequest(home ipv6.Addr) {
	b, ok := ha.bindings[home]
	if !ok {
		return
	}
	if ha.Node.Output(signalPacket(ha.Address, b.CareOf, ipv6.BindingRequest{}.Marshal())) == nil {
		ha.BindingRequestsSent++
		if ha.Obs != nil {
			ha.Obs.Instant(ha.Node.Name, "ha "+home.String(), "breq-sent", "")
		}
	}
}

// SetBindingGroups replaces the group subscription list of an existing
// binding — the hook used when membership is learned from tunneled MLD
// rather than from Binding Update sub-options.
func (ha *HomeAgent) SetBindingGroups(home ipv6.Addr, groups []ipv6.Addr) {
	b, ok := ha.bindings[home]
	if !ok {
		return
	}
	b.Groups = append([]ipv6.Addr(nil), groups...)
	ha.notify(b, true)
}

func (ha *HomeAgent) removeBinding(home ipv6.Addr) {
	b, ok := ha.bindings[home]
	if !ok {
		return
	}
	b.expiry.Stop()
	if b.refreshReq != nil {
		b.refreshReq.Stop()
	}
	delete(ha.bindings, home)
	ha.sorted = nil
	ha.HomeIface.RemoveProxy(home)
	if ha.Obs != nil {
		ha.Obs.State(ha.Node.Name, "ha "+home.String(), "absent", "")
	}
	ha.notify(b, false)
}

func (ha *HomeAgent) notify(b *Binding, present bool) {
	ev := BindingEvent{Home: b.Home, CareOf: b.CareOf, Groups: b.Groups, Present: present}
	if ha.OnBinding != nil {
		ha.OnBinding(ev)
	}
	for _, fn := range ha.bindingListeners {
		fn(ev)
	}
}

// AddBindingListener registers an additional binding-cache observer (the
// redundancy cluster uses this alongside OnBinding).
func (ha *HomeAgent) AddBindingListener(fn func(BindingEvent)) {
	ha.bindingListeners = append(ha.bindingListeners, fn)
}

// ImportBinding installs a binding as if a valid home-registration Binding
// Update had been processed — used by a redundancy peer promoting itself
// with replicated state.
func (ha *HomeAgent) ImportBinding(home, careOf ipv6.Addr, seq uint16, groups []ipv6.Addr, lifetime time.Duration) {
	if lifetime <= 0 {
		ha.removeBinding(home)
		return
	}
	if groups == nil {
		groups = []ipv6.Addr{}
	}
	ha.upsertBinding(home, careOf, seq, groups, lifetime)
}

func (ha *HomeAgent) sendAck(careOf, home ipv6.Addr, ack *ipv6.BindingAck) {
	_ = ha.Node.Output(signalPacket(ha.Address, careOf, ack.Marshal()))
	_ = home
}

// intercept captures unicast packets being forwarded toward a bound home
// address and tunnels them to the care-of address (the draft's home-agent
// proxy behavior; in a real network proxy ND attracts these frames, which
// netem's proxy resolution models). The tunnel carries the packet as it
// arrived, hop limit included.
func (ha *HomeAgent) intercept(rx netem.RxPacket) bool {
	b, ok := ha.bindings[rx.Pkt.Hdr.Dst]
	if !ok {
		return false
	}
	ha.PacketsIntercepted++
	if ha.Config.Mode == TunnelRoutingHeader && canUseRoutingHeader(rx.Pkt) {
		ha.deliverViaRoutingHeader(b, rx)
		return true
	}
	ha.tunnelTo(b, rx)
	return true
}

// deliverViaRoutingHeader rewrites the packet to travel to the care-of
// address first, with the home address as the final routing-header segment
// (the draft's lighter alternative to encapsulation).
func (ha *HomeAgent) deliverViaRoutingHeader(b *Binding, rx netem.RxPacket) {
	out := *rx.Pkt // the payload stays shared; only header fields change
	out.Hdr.HopLimit = rx.HopLimit()
	home := out.Hdr.Dst
	out.Hdr.Dst = b.CareOf
	out.Routing = &ipv6.RoutingHeader{SegmentsLeft: 1, Addresses: []ipv6.Addr{home}}
	ha.PacketsTunneled++
	_ = ha.Node.Output(&out)
}

func canUseRoutingHeader(pkt *ipv6.Packet) bool {
	return !pkt.Hdr.Dst.IsMulticast() && pkt.Routing == nil && pkt.Fragment == nil &&
		pkt.HopByHop == nil && pkt.DestOpts == nil
}

// tunnelTo tunnels the received datagram to b's care-of address: rx.Pkt
// itself, its hop count carried in the outer packet.
func (ha *HomeAgent) tunnelTo(b *Binding, rx netem.RxPacket) {
	outer, err := ipv6.EncapsulateHops(ha.Address, b.CareOf, ipv6.DefaultHopLimit, rx.Pkt, rx.Hops)
	if err != nil {
		return
	}
	ha.PacketsTunneled++
	_ = ha.Node.Output(outer)
}

// handleReverseTunnel terminates tunnels from mobile nodes: the inner
// packet is re-originated. Inner multicast datagrams are transmitted onto
// the home link and offered to the local multicast forwarder (when this
// node is also a multicast router), reproducing the paper's Figure 4 flow;
// inner unicast is forwarded normally. A mobile node builds the packets it
// reverse-tunnels, so their hop count is 0.
func (ha *HomeAgent) handleReverseTunnel(rx netem.RxPacket) {
	if !ha.Node.HasAddr(rx.Pkt.Hdr.Dst) || rx.Pkt.Hdr.Dst != ha.Address {
		return
	}
	// Only decapsulate tunnels from mobile nodes we know: outer source
	// must be a bound care-of address, and the inner source its home
	// address.
	inner, hops, err := ipv6.Decapsulate(rx.Pkt)
	if err != nil {
		return
	}
	b, ok := ha.bindings[inner.Hdr.Src]
	if !ok || b.CareOf != rx.Pkt.Hdr.Src {
		return
	}
	ha.PacketsDetunneled++

	if ha.OnDetunneled != nil && ha.OnDetunneled(b, inner) {
		return
	}

	if inner.Hdr.Dst.IsMulticast() {
		// Re-originate on the home link, as if the mobile node had sent it
		// there (paper §4.2.2 B: "the home agent decapsulates the inner
		// datagram and forwards it on the home link").
		_ = ha.Node.OutputOn(ha.HomeIface, inner)
		in := netem.RxPacket{Iface: ha.HomeIface, Pkt: inner, Hops: hops}
		if ha.Node.Forwarder != nil && !inner.Hdr.Dst.IsLinkScopedMulticast() {
			ha.Node.Forwarder.ForwardMulticast(in)
		}
		// Other mobile nodes subscribed via this HA also need a copy (but
		// never the sender itself).
		ha.fanOutToBindings(in, inner.Hdr.Src)
		return
	}
	_ = ha.Node.Output(inner)
}

// multicastLocal delivers locally-received multicast traffic into the
// tunnels of subscribed mobile nodes.
func (ha *HomeAgent) multicastLocal(rx netem.RxPacket) {
	ha.fanOutToBindings(rx, rx.Pkt.Hdr.Src)
}

// fanOutToBindings tunnels the datagram, as it arrived, to every binding
// subscribed to its group except exceptHome's. Every tunnel carries rx.Pkt
// itself: one outer packet per binding is all the fan-out allocates.
func (ha *HomeAgent) fanOutToBindings(rx netem.RxPacket, exceptHome ipv6.Addr) {
	group := rx.Pkt.Hdr.Dst
	for _, b := range ha.sortedBindings() { // sorted: deterministic fan-out order
		if b.Home == exceptHome {
			continue
		}
		for _, g := range b.Groups {
			if g == group {
				ha.MulticastTunneled++
				ha.tunnelTo(b, rx)
				break
			}
		}
	}
}

// SubscribedGroups returns the union of all bound mobile nodes' group
// lists, sorted — what the HA must be a member of on their behalf.
func (ha *HomeAgent) SubscribedGroups() []ipv6.Addr {
	seen := map[ipv6.Addr]bool{}
	for _, b := range ha.bindings {
		for _, g := range b.Groups {
			seen[g] = true
		}
	}
	out := make([]ipv6.Addr, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
