package mld

import (
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// ListenerEvent notifies the multicast routing protocol that a link gained
// its first listener for a group, or lost its last one (RFC 2710 §5:
// "Whenever a router adds or deletes a multicast group membership for a
// link, it notifies the multicast routing protocol").
type ListenerEvent struct {
	Iface   *netem.Interface
	Group   ipv6.Addr
	Present bool
}

// Router is the MLD router half on one node, covering all of the node's
// interfaces.
type Router struct {
	Node   *netem.Node
	Config Config
	// OnListenerChange feeds membership transitions to PIM-DM (or any
	// other consumer). May be nil.
	OnListenerChange func(ListenerEvent)
	// Obs, when non-nil, records listener and querier state transitions.
	Obs *obs.Recorder

	state    map[*netem.Interface]*routerIfaceState
	disabled map[*netem.Interface]bool

	// Stats.
	QueriesSent  uint64
	ReportsHeard uint64
	DonesHeard   uint64

	closed bool
}

// Close tears the router role down for a node crash: every timer and
// ticker it owns (query tickers, other-querier timers, per-group expiry and
// last-listener retransmission) is stopped without firing listener-change
// notifications, and all state dropped. A closed router ignores all input;
// build a fresh Router on restart.
func (r *Router) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, st := range r.state {
		st.stop()
	}
	r.state = map[*netem.Interface]*routerIfaceState{}
}

type routerIfaceState struct {
	r   *Router
	ifc *netem.Interface

	querier      bool
	disabled     bool
	otherQuerier *sim.Timer // Other-Querier-Present timer
	queryTicker  *sim.Ticker
	startupLeft  int

	// query is the General Query this interface last sent, with Maximum
	// Response Delay queryDelay. Packets on links are immutable (DESIGN.md
	// §5.1), so the same packet goes out on every query until its source
	// or delay changes.
	query      *ipv6.Packet
	queryDelay time.Duration

	listeners *Listeners
}

func (st *routerIfaceState) stop() {
	st.otherQuerier.Stop()
	st.queryTicker.Stop()
	st.listeners.Stop()
}

// NewRouter installs the MLD router role on node, active on every current
// and future interface.
func NewRouter(node *netem.Node, cfg Config) *Router {
	r := &Router{Node: node, Config: cfg, state: map[*netem.Interface]*routerIfaceState{}}
	h := r.handleMLD
	for _, typ := range []uint8{icmpv6.TypeMLDQuery, icmpv6.TypeMLDReport, icmpv6.TypeMLDDone} {
		node.HandleICMP(typ, h)
	}
	for _, ifc := range node.Ifaces {
		r.startIface(ifc)
	}
	node.OnAttach(func(ifc *netem.Interface) { r.startIface(ifc) })
	return r
}

func (r *Router) startIface(ifc *netem.Interface) {
	if r.closed || r.disabled[ifc] {
		return
	}
	if _, ok := r.state[ifc]; ok {
		return
	}
	st := &routerIfaceState{
		r: r, ifc: ifc,
		querier:     true, // every router starts as querier (§5)
		startupLeft: r.Config.Robustness,
	}
	r.state[ifc] = st
	s := r.Node.Sched()
	st.listeners = NewListeners(s, r.Config, st.sendSpecificQuery, st.notify)
	prev := s.PushTag("mld")
	st.otherQuerier = sim.NewTimer(s, func() { st.becomeQuerier() })
	st.queryTicker = sim.NewTicker(s, r.Config.StartupQueryInterval, 0, func() { st.periodicQuery() })
	// First query right away (with a small deterministic-random jitter so
	// co-started routers don't collide artificially).
	s.Schedule(s.Jitter("mld", 100*time.Millisecond), func() { st.periodicQuery() })
	s.PopTag(prev)
}

// AttachRecorder starts feeding listener/querier transitions to rec and
// records each interface's current querier state and listener records as a
// baseline (interfaces in attachment order, groups sorted).
func (r *Router) AttachRecorder(rec *obs.Recorder) {
	r.Obs = rec
	if rec == nil {
		return
	}
	for _, ifc := range r.Node.Ifaces {
		st, ok := r.state[ifc]
		if !ok {
			continue
		}
		q := "non-querier"
		if st.querier {
			q = "querier"
		}
		rec.State(r.Node.Name, st.obsQuerierTrack(), q, "")
		for _, g := range r.Groups(ifc) {
			rec.State(r.Node.Name, st.obsGroupTrack(g), "listeners", "")
		}
	}
}

func (st *routerIfaceState) obsQuerierTrack() string {
	name := "?"
	if st.ifc.Link != nil {
		name = st.ifc.Link.Name
	}
	return "mld " + name + " querier"
}

func (st *routerIfaceState) obsGroupTrack(group ipv6.Addr) string {
	name := "?"
	if st.ifc.Link != nil {
		name = st.ifc.Link.Name
	}
	return "mld " + name + " " + group.String()
}

func (st *routerIfaceState) periodicQuery() {
	if st.disabled || !st.querier || !st.ifc.Up() {
		return
	}
	st.sendGeneralQuery()
	if st.startupLeft > 0 {
		st.startupLeft--
		if st.startupLeft == 0 {
			st.queryTicker.SetPeriod(st.r.Config.QueryInterval)
		}
	}
}

func (st *routerIfaceState) sendGeneralQuery() {
	src, delay := st.ifc.LinkLocal(), st.r.Config.MaxResponseDelay
	if st.query == nil || st.query.Hdr.Src != src || st.queryDelay != delay {
		st.query = Packet(src, ipv6.AllNodes, &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: delay})
		st.queryDelay = delay
	}
	st.send(st.query)
}

// sendSpecificQuery sends one Address-Specific Query of a last-listener
// round.
func (st *routerIfaceState) sendSpecificQuery(group ipv6.Addr) {
	if st.r.Obs != nil {
		st.r.Obs.Instant(st.r.Node.Name, st.obsGroupTrack(group), "specific-query", "")
	}
	st.send(Packet(st.ifc.LinkLocal(), group, &icmpv6.MLD{
		Kind:             icmpv6.TypeMLDQuery,
		MaxResponseDelay: st.r.Config.LastListenerQueryInterval,
		MulticastAddress: group,
	}))
}

// send transmits a Query on the interface.
func (st *routerIfaceState) send(query *ipv6.Packet) {
	_ = st.r.Node.OutputOn(st.ifc, query)
	st.r.QueriesSent++
}

func (st *routerIfaceState) becomeQuerier() {
	st.querier = true
	if st.r.Obs != nil {
		st.r.Obs.State(st.r.Node.Name, st.obsQuerierTrack(), "querier", "")
	}
	st.queryTicker.SetPeriod(st.r.Config.QueryInterval)
	st.sendGeneralQuery()
}

func (r *Router) handleMLD(rx netem.RxPacket, m icmpv6.Msg) {
	st, ok := r.state[rx.Iface]
	if !ok {
		return
	}
	s := r.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	if r.Config.RequireRouterAlert {
		if _, has := ipv6.FindOption(rx.Pkt.HopByHop(), ipv6.OptRouterAlert); !has {
			return
		}
	}
	switch m.Type {
	case icmpv6.TypeMLDQuery:
		st.onQueryHeard(rx.Pkt.Hdr.Src, m.MLD)
	case icmpv6.TypeMLDReport:
		r.ReportsHeard++
		st.listeners.Report(m.MLD.MulticastAddress)
	case icmpv6.TypeMLDDone:
		r.DonesHeard++
		if st.querier {
			st.listeners.Done(m.MLD.MulticastAddress)
		}
	}
}

// onQueryHeard implements querier election: a query from a numerically
// lower link-local source demotes us (§5 bullet 1).
func (st *routerIfaceState) onQueryHeard(src ipv6.Addr, m icmpv6.MLD) {
	if src.Less(st.ifc.LinkLocal()) {
		if st.querier && st.r.Obs != nil {
			st.r.Obs.State(st.r.Node.Name, st.obsQuerierTrack(), "non-querier", "querier="+src.String())
		}
		st.querier = false
		st.otherQuerier.Reset(st.r.Config.OtherQuerierPresentInterval())
	}
	// Non-queriers hearing an address-specific query lower their own group
	// timer to Last Listener Query Time (§5 bullet 2).
	if !st.querier && !m.IsGeneralQuery() {
		st.listeners.SpecificQueryHeard(m.MulticastAddress)
	}
}

func (st *routerIfaceState) notify(group ipv6.Addr, present bool) {
	if st.r.Obs != nil {
		state := "no-listeners"
		if present {
			state = "listeners"
		}
		st.r.Obs.State(st.r.Node.Name, st.obsGroupTrack(group), state, "")
	}
	if st.r.OnListenerChange != nil {
		st.r.OnListenerChange(ListenerEvent{Iface: st.ifc, Group: group, Present: present})
	}
}

// HasListeners reports whether the link attached to ifc currently has
// listeners for group.
func (r *Router) HasListeners(ifc *netem.Interface, group ipv6.Addr) bool {
	st, ok := r.state[ifc]
	return ok && st.listeners.Has(group)
}

// Groups returns the groups with listeners on ifc, sorted for determinism.
func (r *Router) Groups(ifc *netem.Interface) []ipv6.Addr {
	st, ok := r.state[ifc]
	if !ok {
		return nil
	}
	return st.listeners.Groups()
}

// IsQuerier reports whether this router is the elected querier on ifc.
func (r *Router) IsQuerier(ifc *netem.Interface) bool {
	st, ok := r.state[ifc]
	return ok && st.querier
}

// Disable removes the router role from one interface permanently: all
// timers for it stop, its listener records are dropped without
// listener-change notifications, and the role will not restart on
// re-attachment. An MLD proxy calls this on its upstream interface,
// where it performs only the host portion of the protocol (RFC 4605
// §4.2) — leaving the router role active there would contest the
// querier election against the upstream router.
func (r *Router) Disable(ifc *netem.Interface) {
	if r.disabled == nil {
		r.disabled = map[*netem.Interface]bool{}
	}
	r.disabled[ifc] = true
	st, ok := r.state[ifc]
	if !ok {
		return
	}
	st.disabled = true
	st.stop()
	delete(r.state, ifc)
}
