package core

import (
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

	memberRefs    map[ipv6.Addr]int                           // group -> #bindings subscribed
	bindingGroups map[ipv6.Addr]map[ipv6.Addr]bool            // home -> groups (current view)
	mldListeners  map[ipv6.Addr]map[ipv6.Addr]*tunnelListener // home -> group
	queryTicker   *sim.Ticker
}

// tunnelListener is the per-(binding, group) listener record for tunneled
// MLD: the Multicast Listener Interval expiry plus the address-specific
// query retransmission state used after a tunneled Done.
type tunnelListener struct {
	expiry *sim.Timer
	// Last-listener query round (RFC 2710 §7.8 robustness over the tunnel).
	specificQueriesLeft int
	retransmit          *sim.Timer
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
		bindingGroups: map[ipv6.Addr]map[ipv6.Addr]bool{},
		mldListeners:  map[ipv6.Addr]map[ipv6.Addr]*tunnelListener{},
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
// membership references.
func (svc *HAService) onBinding(ev mipv6.BindingEvent) {
	old := svc.bindingGroups[ev.Home]
	var next map[ipv6.Addr]bool
	if ev.Present {
		next = map[ipv6.Addr]bool{}
		for _, g := range ev.Groups {
			next[g] = true
		}
	}
	for g := range next {
		if !old[g] {
			svc.addRef(g)
		}
	}
	for g := range old {
		if !next[g] {
			svc.dropRef(g)
		}
	}
	if ev.Present {
		svc.bindingGroups[ev.Home] = next
	} else {
		delete(svc.bindingGroups, ev.Home)
		// Tunneled-MLD listener state dies with the binding.
		for _, rec := range svc.mldListeners[ev.Home] {
			rec.expiry.Stop()
			rec.retransmit.Stop()
		}
		delete(svc.mldListeners, ev.Home)
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
// listener database lives here, with real Multicast Listener Interval
// expiry — the source of the paper's observation that a silent mobile host
// loses its membership after T_MLI (260 s by default).
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
		svc.tunneledReport(b.Home, m.MLD.MulticastAddress)
		return true
	case icmpv6.TypeMLDDone:
		svc.tunneledDone(b.Home, m.MLD.MulticastAddress)
		return true
	}
	return false
}

func (svc *HAService) tunneledReport(home, group ipv6.Addr) {
	groups := svc.mldListeners[home]
	if groups == nil {
		groups = map[ipv6.Addr]*tunnelListener{}
		svc.mldListeners[home] = groups
	}
	rec, ok := groups[group]
	if !ok {
		h, g := home, group
		rec = &tunnelListener{}
		s := svc.HA.Node.Sched()
		rec.expiry = sim.NewTimer(s, func() { svc.expireTunneled(h, g) })
		rec.retransmit = sim.NewTimer(s, func() { svc.tunnelListenerRound(h, g) })
		groups[group] = rec
		svc.syncBindingGroups(home)
	}
	// A report cancels any pending last-listener round and refreshes the
	// listener interval.
	rec.specificQueriesLeft = 0
	rec.retransmit.Stop()
	rec.expiry.Reset(svc.Timers.ListenerInterval())
}

func (svc *HAService) tunneledDone(home, group ipv6.Addr) {
	rec, ok := svc.mldListeners[home][group]
	if !ok {
		return
	}
	// Last-listener shortcut: the tunnel has exactly one host behind it,
	// so a Done removes membership after the last-listener query time
	// without needing the query round-trip to decide. The address-specific
	// query still goes out Robustness times, one Last Listener Query
	// Interval apart (RFC 2710 §7.8): over a lossy tunnel a single query
	// must not be a single point of failure — if the one copy is lost and
	// the mobile node still listens, its membership would silently expire
	// and stay dark until the next General Query.
	rec.specificQueriesLeft = svc.Timers.Robustness
	rec.expiry.Reset(svc.Timers.LastListenerQueryTime())
	svc.tunnelListenerRound(home, group)
}

// tunnelListenerRound sends one address-specific query of the last-listener
// round into the tunnel and arms the next retransmission.
func (svc *HAService) tunnelListenerRound(home, group ipv6.Addr) {
	rec, ok := svc.mldListeners[home][group]
	if !ok || rec.specificQueriesLeft == 0 {
		return
	}
	rec.specificQueriesLeft--
	svc.sendTunneledQuery(home, group)
	if rec.specificQueriesLeft > 0 {
		rec.retransmit.Reset(svc.Timers.LastListenerQueryInterval)
	}
}

func (svc *HAService) expireTunneled(home, group ipv6.Addr) {
	groups := svc.mldListeners[home]
	if groups == nil {
		return
	}
	if rec, ok := groups[group]; ok {
		rec.expiry.Stop()
		rec.retransmit.Stop()
		delete(groups, group)
		if len(groups) == 0 {
			delete(svc.mldListeners, home)
		}
		svc.syncBindingGroups(home)
	}
}

// syncBindingGroups publishes the tunneled listener set into the binding
// cache (driving both the data fan-out and the memberRefs diff).
func (svc *HAService) syncBindingGroups(home ipv6.Addr) {
	groups := make([]ipv6.Addr, 0, len(svc.mldListeners[home]))
	for g := range svc.mldListeners[home] {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Less(groups[j]) })
	svc.HA.SetBindingGroups(home, groups)
}

// queryTunnels sends a General Query into every tunnel with listener state,
// prompting the mobile node to refresh.
func (svc *HAService) queryTunnels() {
	for _, b := range svc.HA.Bindings() {
		if len(svc.mldListeners[b.Home]) == 0 {
			continue
		}
		svc.sendTunneledQuery(b.Home, ipv6.Unspecified)
	}
}

func (svc *HAService) sendTunneledQuery(home, group ipv6.Addr) {
	b, ok := svc.HA.BindingFor(home)
	if !ok {
		return
	}
	maxDelay := svc.Timers.MaxResponseDelay
	if !group.IsUnspecified() {
		maxDelay = svc.Timers.LastListenerQueryInterval
	}
	q := &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: maxDelay, MulticastAddress: group}
	dst := ipv6.AllNodes
	src := svc.HA.Address
	inner := &ipv6.Packet{
		Hdr:      ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		HopByHop: []ipv6.Option{ipv6.RouterAlertOption(ipv6.RouterAlertMLD)},
		Proto:    ipv6.ProtoICMPv6,
		Payload:  icmpv6.Marshal(src, dst, q),
	}
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
	for _, groups := range svc.mldListeners {
		for _, rec := range groups {
			rec.expiry.Stop()
			rec.retransmit.Stop()
		}
	}
}
