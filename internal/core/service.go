package core

import (
	"slices"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// Service is the mobile-host side of the multicast-for-mobile-hosts system:
// it owns the host's group memberships and realizes them according to the
// configured Approach, re-establishing them across movements.
type Service struct {
	MN       *mipv6.MobileNode
	MLD      *mld.Host
	Approach Approach
	// Timers supplies the MLD timer set used for tunneled membership
	// refresh (VariantTunneledMLD).
	Timers mld.Config

	// OnMove chains the mobile node's movement events to the application.
	OnMove func(mipv6.MoveEvent)

	// Stats.
	TunneledReportsSent uint64
	TunneledDonesSent   uint64
	DatagramsSent       uint64
	// FellBackToTunneledMLD is set when the subscription count exceeded
	// the Figure 5 Group List capacity (15 per Binding Update) and the
	// service permanently switched to tunneled MLD signaling.
	FellBackToTunneledMLD bool

	// groups is kept in address order, so every walk over it (Query
	// responses, re-joins and tunneled Reports after a move) runs in the
	// same order on every run.
	groups []ipv6.Addr
	delay  map[ipv6.Addr]*sim.Timer // pending tunneled query responses
}

// NewService wires the service onto a mobile host. It takes over
// MN.OnMove (chain through Service.OnMove).
func NewService(mn *mipv6.MobileNode, mldHost *mld.Host, approach Approach, timers mld.Config) *Service {
	svc := &Service{
		MN:       mn,
		MLD:      mldHost,
		Approach: approach,
		Timers:   timers,
		delay:    map[ipv6.Addr]*sim.Timer{},
	}
	mn.OnMove = svc.onMove
	mn.Node.HandleICMP(icmpv6.TypeMLDQuery, svc.handleQuery)
	return svc
}

// RecommendedHostMLD adapts a host MLD configuration to an approach:
// unsolicited re-Reports on movement only make sense when receiving
// locally.
func RecommendedHostMLD(a Approach, base mld.HostConfig) mld.HostConfig {
	base.ResendOnMove = base.ResendOnMove && a.Receive != ReceiveHomeTunnel
	return base
}

// Groups returns the current subscriptions, sorted.
func (svc *Service) Groups() []ipv6.Addr { return slices.Clone(svc.groups) }

// Join subscribes the host to a multicast group under the configured
// approach.
func (svc *Service) Join(group ipv6.Addr) {
	i, ok := slices.BinarySearchFunc(svc.groups, group, ipv6.Addr.Compare)
	if ok {
		return
	}
	svc.groups = slices.Insert(svc.groups, i, group)
	svc.maybeFallBack()
	switch {
	case svc.Approach.Receive != ReceiveHomeTunnel || svc.MN.AtHome():
		// Local membership (also the degenerate tunnel case at home).
		svc.MLD.Join(svc.MN.Iface, group)
		if svc.Approach.Receive == ReceiveHomeTunnel && svc.Approach.Variant == VariantGroupListBU {
			svc.MN.SetGroupList(svc.Groups()) // keep future BUs current
		}
	case svc.Approach.Variant == VariantGroupListBU:
		svc.MN.SetGroupList(svc.Groups()) // pushes an extended BU
	default: // VariantTunneledMLD, away from home
		svc.sendTunneledReport(group)
	}
}

// maybeFallBack switches Group-List signaling to tunneled MLD when the
// subscription count exceeds what one Figure 5 sub-option can carry. The
// switch is permanent for the service (hysteresis over simplicity).
func (svc *Service) maybeFallBack() {
	if svc.Approach.Receive != ReceiveHomeTunnel ||
		svc.Approach.Variant != VariantGroupListBU ||
		len(svc.groups) <= ipv6.GroupListCapacity {
		return
	}
	svc.Approach.Variant = VariantTunneledMLD
	svc.FellBackToTunneledMLD = true
	// Clear the BU-carried list ONCE (explicit empty sub-option), then
	// drop back to "absent = no change" so future refresh Binding Updates
	// do not wipe the tunneled-MLD membership the home agent maintains.
	svc.MN.SetGroupList(nil)
	svc.MN.GroupList = nil
	if !svc.MN.AtHome() && svc.MN.Registered() {
		for _, g := range svc.groups {
			svc.sendTunneledReport(g)
		}
	}
}

// Leave drops a subscription.
func (svc *Service) Leave(group ipv6.Addr) {
	i, ok := slices.BinarySearchFunc(svc.groups, group, ipv6.Addr.Compare)
	if !ok {
		return
	}
	svc.groups = slices.Delete(svc.groups, i, i+1)
	if t := svc.delay[group]; t != nil {
		t.Stop()
		delete(svc.delay, group)
	}
	if svc.MLD.Member(svc.MN.Iface, group) {
		svc.MLD.Leave(svc.MN.Iface, group)
	}
	if svc.Approach.Receive == ReceiveHomeTunnel && !svc.MN.AtHome() {
		switch svc.Approach.Variant {
		case VariantGroupListBU:
			svc.MN.SetGroupList(svc.Groups())
		case VariantTunneledMLD:
			svc.sendTunneledDone(group)
		}
	}
}

// Send transmits one multicast datagram under the configured approach.
func (svc *Service) Send(group ipv6.Addr, payload []byte) {
	svc.DatagramsSent++
	u := &ipv6.UDP{SrcPort: workloadSrcPort, DstPort: workloadSrcPort, Payload: payload}
	switch svc.Approach.Send {
	case SendHomeTunnel:
		src := svc.MN.HomeAddress
		inner := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: group, HopLimit: ipv6.DefaultHopLimit},
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(src, group),
		}
		_ = svc.MN.SendReverseTunneled(inner)
	default: // SendLocal
		src := svc.MN.CareOf()
		var ext *ipv6.Ext
		if src.IsUnspecified() {
			src = svc.MN.HomeAddress
		} else {
			// Away: the draft has mobile nodes include the Home Address
			// option in packets sent from the care-of address.
			ext = svc.MN.HomeAddressExt()
		}
		pkt := &ipv6.Packet{
			Hdr:     ipv6.Header{Src: src, Dst: group, HopLimit: ipv6.DefaultHopLimit},
			Ext:     ext,
			Proto:   ipv6.ProtoUDP,
			Payload: u.Marshal(src, group),
		}
		_ = svc.MN.Node.OutputOn(svc.MN.Iface, pkt)
	}
}

// workloadSrcPort mirrors scenario.WorkloadPort without importing it (core
// stays independent of the scenario layer).
const workloadSrcPort = 9000

func (svc *Service) onMove(ev mipv6.MoveEvent) {
	switch {
	case ev.AtHome:
		// Home again: local membership for everything.
		for _, g := range svc.groups {
			svc.MLD.Join(svc.MN.Iface, g)
		}
	case svc.Approach.Receive == ReceiveHomeTunnel:
		// Away with tunnel reception: withdraw (stale) local membership —
		// we are no longer on the link it was reported on.
		for _, g := range svc.groups {
			svc.MLD.LeaveSilently(svc.MN.Iface, g)
		}
		if svc.Approach.Variant == VariantTunneledMLD && ev.Registered {
			for _, g := range svc.groups {
				svc.sendTunneledReport(g)
			}
		}
		// VariantGroupListBU needs nothing here: MN.GroupList is kept
		// current by Join/Leave, so the Binding Update this movement
		// already triggered carried the list.
	default:
		// ReceiveLocal away from home: mld.Host's ResendOnMove handles
		// re-subscription at attach time (if enabled — the knob the paper's
		// §4.4 discussion turns).
	}
	if svc.OnMove != nil {
		svc.OnMove(ev)
	}
}

// sendTunneledReport sends an MLD Report through the reverse tunnel with
// the home address as source, so the home agent can attribute it to the
// binding (the paper's "sending MLD REPORTS through the tunnel directly to
// their home agent / PIM-DM router").
func (svc *Service) sendTunneledReport(group ipv6.Addr) {
	if svc.sendTunneled(group, &icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: group}) {
		svc.TunneledReportsSent++
	}
}

func (svc *Service) sendTunneledDone(group ipv6.Addr) {
	if svc.sendTunneled(ipv6.AllRouters, &icmpv6.MLD{Kind: icmpv6.TypeMLDDone, MulticastAddress: group}) {
		svc.TunneledDonesSent++
	}
}

func (svc *Service) sendTunneled(dst ipv6.Addr, m *icmpv6.MLD) bool {
	return svc.MN.SendReverseTunneled(mld.Packet(svc.MN.HomeAddress, dst, m)) == nil
}

// handleQuery answers MLD Queries that arrive through the tunnel
// (VariantTunneledMLD membership refresh).
func (svc *Service) handleQuery(rx netem.RxPacket, m icmpv6.Msg) {
	if !rx.ViaTunnel || svc.Approach.Variant != VariantTunneledMLD || svc.MN.AtHome() {
		return
	}
	q := m.MLD
	s := svc.MN.Node.Sched()
	for _, g := range svc.groups {
		if !q.IsGeneralQuery() && q.MulticastAddress != g {
			continue
		}
		t := svc.delay[g]
		if t == nil {
			t = sim.NewTimer(s, func() { svc.sendTunneledReport(g) })
			svc.delay[g] = t
		}
		mld.ArmReport(s, t, q.MaxResponseDelay)
	}
}
