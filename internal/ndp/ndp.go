// Package ndp implements the slice of IPv6 Neighbor Discovery (RFC 2461)
// and stateless address autoconfiguration (RFC 2462) that Mobile IPv6
// depends on: routers advertise on-link /64 prefixes in periodic (and
// solicited) Router Advertisements; hosts solicit on attachment, form
// addresses from autonomous prefixes, and detect movement when the
// advertised prefix set changes.
//
// The interval between attaching to a new link and learning its prefix is
// the real "movement detection" window the paper discusses: during it a
// mobile sender still uses its old source address, which is what triggers
// spurious PIM-DM assert processes (paper §4.3.1).
package ndp

import (
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// RouterConfig tunes the router-side advertisement daemon.
type RouterConfig struct {
	// AdvInterval is the unsolicited Router Advertisement period.
	// RFC 2461's default is minutes; networks serving mobile nodes
	// advertise much faster so movement is detected quickly.
	AdvInterval time.Duration
	// AdvJitter is added (uniformly) to each interval.
	AdvJitter time.Duration
	// SolicitedDelayMax bounds the random delay before answering a Router
	// Solicitation (RFC 2461 MAX_RA_DELAY_TIME).
	SolicitedDelayMax time.Duration
	// PrefixLifetime is advertised as valid/preferred lifetime.
	PrefixLifetime time.Duration
}

// DefaultRouterConfig returns mobility-friendly advertisement timing.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		AdvInterval:       1 * time.Second,
		AdvJitter:         500 * time.Millisecond,
		SolicitedDelayMax: 100 * time.Millisecond,
		PrefixLifetime:    30 * time.Minute,
	}
}

// Router is the advertisement daemon on one router node. It advertises, on
// every interface, the /64 prefix assigned to that interface's link.
type Router struct {
	Node   *netem.Node
	Config RouterConfig
	// PrefixFor maps an interface to the /64 prefix to advertise (typically
	// routing.Domain.PrefixOf of the attached link).
	PrefixFor func(*netem.Interface) (ipv6.Addr, bool)

	tickers map[*netem.Interface]*sim.Ticker
	// adverts holds the advertisement each interface last sent. Packets on
	// links are immutable (DESIGN.md §5.1), so the same packet goes out on
	// every tick until its source, prefix or lifetime changes.
	adverts map[*netem.Interface]*advert
	closed  bool
}

// advert is an encoded Router Advertisement and what it advertises.
type advert struct {
	pkt       *ipv6.Packet
	src       ipv6.Addr
	prefix    ipv6.Addr
	hasPrefix bool
	lifetime  time.Duration
}

// Close stops all advertisement tickers for a node crash. A closed router
// stays silent; build a fresh Router on restart.
func (r *Router) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, t := range r.tickers {
		t.Stop()
	}
	r.tickers = map[*netem.Interface]*sim.Ticker{}
}

// NewRouter installs the daemon on node and starts advertising.
func NewRouter(node *netem.Node, cfg RouterConfig, prefixFor func(*netem.Interface) (ipv6.Addr, bool)) *Router {
	r := &Router{Node: node, Config: cfg, PrefixFor: prefixFor, tickers: map[*netem.Interface]*sim.Ticker{}}
	node.HandleICMP(icmpv6.TypeRouterSolicit, r.handleSolicit)
	for _, ifc := range node.Ifaces {
		r.startIface(ifc)
	}
	node.OnAttach(func(ifc *netem.Interface) { r.startIface(ifc) })
	return r
}

func (r *Router) startIface(ifc *netem.Interface) {
	if r.closed {
		return
	}
	if _, ok := r.tickers[ifc]; ok {
		return
	}
	s := r.Node.Sched()
	r.tickers[ifc] = sim.NewTicker(s, r.Config.AdvInterval, r.Config.AdvJitter, func() {
		r.advertise(ifc)
	})
	// First unsolicited advertisement goes out promptly (small jitter).
	s.Schedule(s.Jitter("ndp", r.Config.SolicitedDelayMax+1), func() {
		r.advertise(ifc)
	})
}

func (r *Router) advertise(ifc *netem.Interface) {
	if r.closed || !ifc.Up() {
		return
	}
	src := ifc.LinkLocal()
	prefix, ok := r.PrefixFor(ifc)
	if ok {
		prefix = prefix.Prefix(64)
	}
	life := r.Config.PrefixLifetime
	a := r.adverts[ifc]
	if a == nil || a.src != src || a.prefix != prefix || a.hasPrefix != ok || a.lifetime != life {
		a = newAdvert(src, prefix, ok, life)
		if r.adverts == nil {
			r.adverts = map[*netem.Interface]*advert{}
		}
		r.adverts[ifc] = a
	}
	_ = r.Node.OutputOn(ifc, a.pkt)
}

// newAdvert encodes an unsolicited Router Advertisement from src, carrying
// prefix when hasPrefix.
func newAdvert(src, prefix ipv6.Addr, hasPrefix bool, lifetime time.Duration) *advert {
	ra := icmpv6.RouterAdvert{
		CurHopLimit:    ipv6.DefaultHopLimit,
		RouterLifetime: 30 * time.Minute,
	}
	if hasPrefix {
		ra.AddPrefix(icmpv6.PrefixInfo{
			PrefixLen:         64,
			OnLink:            true,
			Autonomous:        true,
			ValidLifetime:     lifetime,
			PreferredLifetime: lifetime,
			Prefix:            prefix,
		})
	}
	return &advert{
		pkt: &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: ipv6.AllNodes, HopLimit: 255},
			Proto:   ipv6.ProtoICMPv6,
			Payload: icmpv6.Marshal(src, ipv6.AllNodes, &ra),
		},
		src: src, prefix: prefix, hasPrefix: hasPrefix, lifetime: lifetime,
	}
}

func (r *Router) handleSolicit(rx netem.RxPacket, _ icmpv6.Msg) {
	ifc := rx.Iface
	s := r.Node.Sched()
	s.Schedule(s.Jitter("ndp", r.Config.SolicitedDelayMax+1), func() { r.advertise(ifc) })
}

// PrefixEvent reports an address (re)configuration on a host interface.
type PrefixEvent struct {
	Iface  *netem.Interface
	Prefix ipv6.Addr // the /64
	Addr   ipv6.Addr // the SLAAC address formed from it
	// Moved is true when this prefix replaced a different previous prefix
	// (i.e. the host changed links), false on first configuration or
	// re-advertisement of the same prefix.
	Moved bool
}

// Host is the host-side NDP machine: solicit on attach, autoconfigure from
// advertised prefixes, report movement.
type Host struct {
	Node *netem.Node
	// IID is the 64-bit interface identifier used for SLAAC.
	IID uint64
	// OnPrefix is invoked on every configuration change (Mobile IPv6's
	// movement detection subscribes here).
	OnPrefix func(PrefixEvent)

	current map[*netem.Interface]ipv6.Addr // current prefix per iface
	formed  map[*netem.Interface]ipv6.Addr // SLAAC address we configured

	// solicitation is the Router Solicitation last sent. Like a router's
	// advertisement it is re-sent as it is until its source changes.
	solicitation *ipv6.Packet
}

// NewHost installs the host machine on node. It immediately solicits on
// already-attached interfaces.
func NewHost(node *netem.Node, iid uint64) *Host {
	h := &Host{
		Node:    node,
		IID:     iid,
		current: map[*netem.Interface]ipv6.Addr{},
		formed:  map[*netem.Interface]ipv6.Addr{},
	}
	node.HandleICMP(icmpv6.TypeRouterAdvert, h.handleAdvert)
	node.OnAttach(func(ifc *netem.Interface) { h.solicit(ifc) })
	for _, ifc := range node.Ifaces {
		if ifc.Up() {
			h.solicit(ifc)
		}
	}
	return h
}

// Addr returns the host's current SLAAC address on ifc (zero if none yet).
func (h *Host) Addr(ifc *netem.Interface) ipv6.Addr { return h.formed[ifc] }

// solicit sends a Router Solicitation to speed up prefix discovery.
func (h *Host) solicit(ifc *netem.Interface) {
	if src := ifc.LinkLocal(); h.solicitation == nil || h.solicitation.Hdr.Src != src {
		h.solicitation = &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: ipv6.AllRouters, HopLimit: 255},
			Proto:   ipv6.ProtoICMPv6,
			Payload: icmpv6.Marshal(src, ipv6.AllRouters, icmpv6.RouterSolicit{}),
		}
	}
	_ = h.Node.OutputOn(ifc, h.solicitation)
}

func (h *Host) handleAdvert(rx netem.RxPacket, m icmpv6.Msg) {
	if rx.ViaTunnel {
		return // a tunneled RA is not evidence of on-link attachment
	}
	for _, o := range m.RA.Options() {
		pi := o.Prefix
		if o.Raw != nil || !pi.Autonomous || pi.PrefixLen != 64 {
			continue
		}
		h.configure(rx.Iface, pi.Prefix.Prefix(64))
	}
}

func (h *Host) configure(ifc *netem.Interface, prefix ipv6.Addr) {
	prev, had := h.current[ifc]
	if had && prev == prefix {
		return // same prefix re-advertised; nothing to do
	}
	// Remove the address formed from the previous prefix.
	if old, ok := h.formed[ifc]; ok {
		ifc.RemoveAddr(old)
	}
	addr := prefix.WithInterfaceID(h.IID)
	ifc.AddAddr(addr)
	h.current[ifc] = prefix
	h.formed[ifc] = addr
	if h.OnPrefix != nil {
		h.OnPrefix(PrefixEvent{Iface: ifc, Prefix: prefix, Addr: addr, Moved: had})
	}
}
