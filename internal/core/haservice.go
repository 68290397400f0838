package core

import (
	"slices"
	"sort"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/sim"
)

// HAService is the home-agent side of the system: it turns binding-cache
// group subscriptions (from either the Multicast Group List Sub-Option or
// tunneled MLD) into multicast membership on the home agent's node, so the
// distribution tree delivers the traffic that the home agent then tunnels
// to its mobile nodes.
//
// Exactly one of PIM or MLDHost drives membership:
//
//   - PIM non-nil: the home agent is itself a PIM-DM router (the paper's
//     first §4.3.2 scenario); it registers node-local members with its own
//     engine, which grafts toward sources.
//   - MLDHost non-nil: the home agent is a plain host on the home link (the
//     "more general" second scenario); it joins groups via ordinary MLD
//     Reports to the local PIM-DM router — "As long as the home agent has a
//     binding cache entry for the mobile host, it periodically sends
//     REPORTS to its local PIM-DM router."
type HAService struct {
	HA *mipv6.HomeAgent
	// PIMMember registers/withdraws node-local group membership on the
	// HA's own PIM engine (nil if the HA is not a PIM router).
	PIMMember interface {
		AddLocalMember(group ipv6.Addr)
		RemoveLocalMember(group ipv6.Addr)
	}
	// MLDHost joins groups on the home link as an ordinary listener (nil
	// when PIMMember is used).
	MLDHost *mld.Host
	// Timers is the MLD timer set for tunneled-membership expiry and the
	// tunnel query schedule.
	Timers mld.Config

	// Stats.
	TunneledQueriesSent uint64

	memberRefs    map[ipv6.Addr]int            // group -> #bindings subscribed
	bindingGroups map[ipv6.Addr][]ipv6.Addr    // home -> groups in address order (current view)
	tunnels       map[ipv6.Addr]*mld.Listeners // home -> tunneled MLD listener database
	queryTicker   *sim.Ticker
}

// NewHAService wires the service onto a home agent. It takes over
// HA.OnBinding and HA.OnDetunneled.
func NewHAService(ha *mipv6.HomeAgent, pim interface {
	AddLocalMember(group ipv6.Addr)
	RemoveLocalMember(group ipv6.Addr)
}, mldHost *mld.Host, timers mld.Config) *HAService {
	svc := &HAService{
		HA:            ha,
		PIMMember:     pim,
		MLDHost:       mldHost,
		Timers:        timers,
		memberRefs:    map[ipv6.Addr]int{},
		bindingGroups: map[ipv6.Addr][]ipv6.Addr{},
		tunnels:       map[ipv6.Addr]*mld.Listeners{},
	}
	ha.OnBinding = svc.onBinding
	ha.OnDetunneled = svc.onDetunneled
	svc.queryTicker = sim.NewTicker(ha.Node.Sched(), timers.QueryInterval, timers.MaxResponseDelay/2, func() {
		svc.queryTunnels()
	})
	return svc
}

// MemberGroups returns the groups the HA currently subscribes to on behalf
// of mobile nodes, sorted.
func (svc *HAService) MemberGroups() []ipv6.Addr {
	out := make([]ipv6.Addr, 0, len(svc.memberRefs))
	for g := range svc.memberRefs {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// onBinding diffs the binding's group list against our view and adjusts
// membership references, in group-address order.
func (svc *HAService) onBinding(ev mipv6.BindingEvent) {
	old := svc.bindingGroups[ev.Home]
	var next []ipv6.Addr
	if ev.Present {
		next = slices.Clone(ev.Groups)
		slices.SortFunc(next, ipv6.Addr.Compare)
		next = slices.Compact(next)
	}
	for _, g := range next {
		if _, ok := slices.BinarySearchFunc(old, g, ipv6.Addr.Compare); !ok {
			svc.addRef(g)
		}
	}
	for _, g := range old {
		if _, ok := slices.BinarySearchFunc(next, g, ipv6.Addr.Compare); !ok {
			svc.dropRef(g)
		}
	}
	if ev.Present {
		svc.bindingGroups[ev.Home] = next
	} else {
		delete(svc.bindingGroups, ev.Home)
		// Tunneled-MLD listener state dies with the binding.
		if l := svc.tunnels[ev.Home]; l != nil {
			l.Stop()
			delete(svc.tunnels, ev.Home)
		}
	}
}

func (svc *HAService) addRef(g ipv6.Addr) {
	svc.memberRefs[g]++
	if svc.memberRefs[g] != 1 {
		return
	}
	if svc.PIMMember != nil {
		svc.PIMMember.AddLocalMember(g)
	}
	if svc.MLDHost != nil {
		svc.MLDHost.Join(svc.HA.HomeIface, g)
	}
}

func (svc *HAService) dropRef(g ipv6.Addr) {
	if svc.memberRefs[g] == 0 {
		return
	}
	svc.memberRefs[g]--
	if svc.memberRefs[g] > 0 {
		return
	}
	delete(svc.memberRefs, g)
	if svc.PIMMember != nil {
		svc.PIMMember.RemoveLocalMember(g)
	}
	if svc.MLDHost != nil {
		svc.MLDHost.Leave(svc.HA.HomeIface, g)
	}
}

// onDetunneled terminates MLD messages arriving through reverse tunnels
// (VariantTunneledMLD): the tunnel acts as a point-to-point interface whose
// listener database, an mld.Listeners with the home agent as querier,
// lives here, with real Multicast Listener Interval expiry — the source of
// the paper's observation that a silent mobile host loses its membership
// after T_MLI (260 s by default).
func (svc *HAService) onDetunneled(b *mipv6.Binding, inner *ipv6.Packet) bool {
	if inner.Proto != ipv6.ProtoICMPv6 {
		return false
	}
	m, err := icmpv6.Parse(inner.Hdr.Src, inner.Hdr.Dst, inner.Payload)
	if err != nil {
		return false
	}
	switch m.Type {
	case icmpv6.TypeMLDReport:
		svc.tunnel(b.Home).Report(m.MLD.MulticastAddress)
		return true
	case icmpv6.TypeMLDDone:
		// The home agent is the tunnel's only router, so always its
		// querier. The tunnel has one host behind it, but the
		// address-specific query still goes out Robustness times (RFC 2710
		// §7.8): over a lossy tunnel a single lost copy must not expire a
		// mobile node that still listens.
		if l := svc.tunnels[b.Home]; l != nil {
			l.Done(m.MLD.MulticastAddress)
		}
		return true
	}
	return false
}

// tunnel returns the listener database of the tunnel to the mobile node
// with home address home, creating it on the first tunneled Report. Its
// listener set is published into the binding cache, which drives both the
// data fan-out and the memberRefs diff.
func (svc *HAService) tunnel(home ipv6.Addr) *mld.Listeners {
	l := svc.tunnels[home]
	if l == nil {
		l = mld.NewListeners(svc.HA.Node.Sched(), svc.Timers,
			func(group ipv6.Addr) { svc.sendTunneledQuery(home, group) },
			func(ipv6.Addr, bool) { svc.HA.SetBindingGroups(home, l.Groups()) })
		svc.tunnels[home] = l
	}
	return l
}

// queryTunnels sends a General Query into every tunnel with listener state,
// prompting the mobile node to refresh.
func (svc *HAService) queryTunnels() {
	for _, b := range svc.HA.Bindings() {
		if l := svc.tunnels[b.Home]; l != nil && l.Len() > 0 {
			svc.sendTunneledQuery(b.Home, ipv6.Unspecified)
		}
	}
}

// sendTunneledQuery tunnels a Query to the mobile node with home address
// home: a General Query (group unspecified) to ff02::1, an
// Address-Specific Query to the group it asks about, as mld.Router
// addresses its own (RFC 2710 §5).
func (svc *HAService) sendTunneledQuery(home, group ipv6.Addr) {
	b, ok := svc.HA.BindingFor(home)
	if !ok {
		return
	}
	dst, maxDelay := ipv6.AllNodes, svc.Timers.MaxResponseDelay
	if !group.IsUnspecified() {
		dst, maxDelay = group, svc.Timers.LastListenerQueryInterval
	}
	q := &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: maxDelay, MulticastAddress: group}
	inner := mld.Packet(svc.HA.Address, dst, q)
	outer, err := ipv6.Encapsulate(svc.HA.Address, b.CareOf, ipv6.DefaultHopLimit, inner)
	if err != nil {
		return
	}
	if svc.HA.Node.Output(outer) == nil {
		svc.TunneledQueriesSent++
	}
}

// Stop halts the tunnel query schedule and every listener timer (end of an
// experiment, or the HA's router crashing).
func (svc *HAService) Stop() {
	svc.queryTicker.Stop()
	for _, l := range svc.tunnels {
		l.Stop()
	}
}
