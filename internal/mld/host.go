package mld

import (
	"slices"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// HostConfig tunes host listener behavior.
type HostConfig struct {
	Config
	// ResendOnMove controls whether the host re-sends unsolicited Reports
	// for all its memberships when an interface attaches to a new link —
	// the optimization the paper recommends for mobile receivers
	// ("mobile hosts should send unsolicited REPORTS after moving to a new
	// link"). With it off, a moved receiver waits for the next Query: the
	// pathological join delay of §4.3.1.
	ResendOnMove bool
}

// DefaultHostConfig enables the paper's recommended unsolicited Reports on
// movement.
func DefaultHostConfig() HostConfig {
	return HostConfig{Config: DefaultConfig(), ResendOnMove: true}
}

// Host is the MLD listener half on one node.
type Host struct {
	Node   *netem.Node
	Config HostConfig
	// Obs, when non-nil, records membership instants (join/leave/report).
	Obs *obs.Recorder

	// members is kept in group-address order (Join inserts in place), so
	// the walks over it (Query responses, re-Reports after a move) draw
	// their jitter and send their Reports in the same order on every run.
	members []*memberState

	// Stats.
	ReportsSent uint64
	DonesSent   uint64
}

type memberKey struct {
	ifc   *netem.Interface
	group ipv6.Addr
}

type memberState struct {
	h   *Host
	key memberKey

	delay        *sim.Timer // pending delayed response to a Query
	unsolicited  *sim.Timer // pending initial unsolicited re-reports
	unsolLeft    int
	lastReporter bool // we sent the most recent Report; owe a Done on leave

	// report is the Report this membership last sent. Packets on links
	// are immutable (DESIGN.md §5.1), so the same packet goes out on every
	// Report until the interface's link-local address changes.
	report *ipv6.Packet
}

// NewHost installs the MLD listener role on node.
func NewHost(node *netem.Node, cfg HostConfig) *Host {
	h := &Host{Node: node, Config: cfg}
	handle := h.handleMLD
	node.HandleICMP(icmpv6.TypeMLDQuery, handle)
	node.HandleICMP(icmpv6.TypeMLDReport, handle)
	node.OnAttach(func(ifc *netem.Interface) { h.onMove(ifc) })
	return h
}

// Join subscribes the node to group on ifc: the interface filter is opened
// and unsolicited Reports are sent (RFC 2710 §4 paragraph 6).
func (h *Host) Join(ifc *netem.Interface, group ipv6.Addr) {
	i, ok := h.find(ifc, group)
	if ok {
		return
	}
	ifc.JoinGroup(group)
	m := &memberState{h: h, key: memberKey{ifc, group}}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	m.delay = sim.NewTimer(s, func() { m.respond() })
	m.unsolicited = sim.NewTimer(s, func() { m.unsolicitedRound() })
	h.members = slices.Insert(h.members, i, m)
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "join", "")
	}
	m.startUnsolicited()
}

// find returns the index of the membership of group on ifc and true, or
// the index a new one belongs at and false.
func (h *Host) find(ifc *netem.Interface, group ipv6.Addr) (int, bool) {
	i, _ := slices.BinarySearchFunc(h.members, group, func(m *memberState, g ipv6.Addr) int {
		return m.key.group.Compare(g)
	})
	for j := i; j < len(h.members) && h.members[j].key.group == group; j++ {
		if h.members[j].key.ifc == ifc {
			return j, true
		}
	}
	return i, false
}

// drop removes the membership of group on ifc, returning it (nil if the
// node was not a member).
func (h *Host) drop(ifc *netem.Interface, group ipv6.Addr) *memberState {
	i, ok := h.find(ifc, group)
	if !ok {
		return nil
	}
	m := h.members[i]
	m.delay.Stop()
	m.unsolicited.Stop()
	h.members = slices.Delete(h.members, i, i+1)
	ifc.LeaveGroup(group)
	return m
}

func (h *Host) obsTrack(group ipv6.Addr) string {
	return "mld member " + group.String()
}

// Leave unsubscribes. If this node was the last to report the group on this
// link, a Done is sent to all-routers (§4 paragraph 8).
func (h *Host) Leave(ifc *netem.Interface, group ipv6.Addr) {
	m := h.drop(ifc, group)
	if m == nil {
		return
	}
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "leave", "")
	}
	if m.lastReporter {
		h.sendDone(ifc, group)
	}
}

// LeaveSilently drops a membership without sending Done — the situation of
// a mobile host that already left the link (the paper: "mobile hosts cannot
// use the DONE message when they leave a link"), or of a host switching to
// home-agent-tunneled reception.
func (h *Host) LeaveSilently(ifc *netem.Interface, group ipv6.Addr) {
	if h.drop(ifc, group) == nil {
		return
	}
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "leave-silent", "")
	}
}

// Member reports whether the node is subscribed to group on ifc.
func (h *Host) Member(ifc *netem.Interface, group ipv6.Addr) bool {
	_, ok := h.find(ifc, group)
	return ok
}

// Memberships returns the number of active memberships.
func (h *Host) Memberships() int { return len(h.members) }

// onMove re-announces memberships after attachment to a (new) link.
func (h *Host) onMove(ifc *netem.Interface) {
	if !h.Config.ResendOnMove {
		return
	}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	for _, m := range h.members {
		if m.key.ifc == ifc {
			m.startUnsolicited()
		}
	}
}

func (m *memberState) startUnsolicited() {
	m.unsolLeft = m.h.Config.Robustness
	m.unsolicitedRound()
}

func (m *memberState) unsolicitedRound() {
	if m.unsolLeft == 0 {
		return
	}
	m.unsolLeft--
	m.sendReport()
	m.lastReporter = true
	if m.unsolLeft > 0 {
		m.unsolicited.Reset(m.h.Config.UnsolicitedReportInterval)
	}
}

// respond fires when the random response-delay timer expires.
func (m *memberState) respond() {
	m.sendReport()
	m.lastReporter = true
}

func (m *memberState) sendReport() {
	h, ifc, group := m.h, m.key.ifc, m.key.group
	if !ifc.Up() {
		return
	}
	if src := ifc.LinkLocal(); m.report == nil || m.report.Hdr.Src != src {
		m.report = Packet(src, group, &icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: group})
	}
	_ = h.Node.OutputOn(ifc, m.report)
	h.ReportsSent++
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "report-sent", "")
	}
}

func (h *Host) sendDone(ifc *netem.Interface, group ipv6.Addr) {
	if !ifc.Up() {
		return
	}
	done := &icmpv6.MLD{Kind: icmpv6.TypeMLDDone, MulticastAddress: group}
	_ = h.Node.OutputOn(ifc, Packet(ifc.LinkLocal(), ipv6.AllRouters, done))
	h.DonesSent++
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "done-sent", "")
	}
}

func (h *Host) handleMLD(rx netem.RxPacket, m icmpv6.Msg) {
	if rx.ViaTunnel {
		return // tunneled MLD is handled by the Mobile IPv6 layer, not here
	}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	switch m.Type {
	case icmpv6.TypeMLDQuery:
		h.onQuery(rx.Iface, m.MLD)
	case icmpv6.TypeMLDReport:
		// Report suppression (§4 paragraph 5): someone else reported; we
		// need not.
		if i, ok := h.find(rx.Iface, m.MLD.MulticastAddress); ok {
			ms := h.members[i]
			ms.delay.Stop()
			ms.lastReporter = false
		}
	}
}

func (h *Host) onQuery(ifc *netem.Interface, q icmpv6.MLD) {
	for _, m := range h.members {
		key := m.key
		if key.ifc != ifc || !q.IsGeneralQuery() && q.MulticastAddress != key.group {
			continue
		}
		// Link-scope groups are never reported (§5 last paragraph).
		if key.group.IsLinkScopedMulticast() {
			continue
		}
		ArmReport(h.Node.Sched(), m.delay, q.MaxResponseDelay)
	}
}
