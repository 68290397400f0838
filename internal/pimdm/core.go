package pimdm

import (
	"slices"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// The dense-mode core. PIM-DM and HPIM-DM (internal/hpimdm) differ only
// in how a router tells its upstream neighbour whether it wants (S,G)
// traffic: soft-state Prune/Graft/State Refresh here, reliable
// Interest/NoInterest sync there (arXiv 2002.06635 §3–4 draws the same
// line). Everything else is Core: the neighbour table built from Hellos,
// local membership from MLD, the (S,G) table with its RPF interface and
// data timeout, flood-and-forward on the data path, and the Assert
// election. An engine embeds a Core, keeps its own state in the typed
// State fields of Entry and Downstream, and answers the core through
// Hooks.

// SG names one (source, group) pair.
type SG struct {
	Source, Group ipv6.Addr
}

// compareSG orders (S,G) pairs by source, then group.
func compareSG(a, b SG) int {
	if c := a.Source.Compare(b.Source); c != 0 {
		return c
	}
	return a.Group.Compare(b.Group)
}

// Params configures the Core for the engine that embeds it.
type Params struct {
	// Name is the engine's registry name. Tag is the scheduler tag its
	// handlers run under; it also prefixes the engine's obs tracks.
	Name, Tag string
	// GenID, when non-zero, is carried in every Hello and checkpoint.
	GenID uint32

	HelloInterval, HelloHoldtime time.Duration
	// DataTimeout expires the (S,G) entry of a silent source.
	DataTimeout time.Duration
	// AssertTime expires assert-loser state; AssertSuppress rate-limits
	// our own Asserts per (entry, interface).
	AssertTime, AssertSuppress time.Duration
	// Reprune rate-limits what we send a point-to-point peer that keeps
	// pushing (S,G) onto our non-RPF side.
	Reprune time.Duration
}

// Neighbor is one live router heard on an interface.
type Neighbor struct {
	Addr   ipv6.Addr
	genID  uint32 // Generation ID of the neighbour's last Hello
	expiry *sim.Timer
}

// Entry is the (S,G) state one router holds. E and D are the engine's
// own state types: E for the entry's upstream signalling, D for each
// downstream interface.
type Entry[E, D any] struct {
	SG
	Upstream    *netem.Interface // RPF interface toward the source
	UpstreamNbr ipv6.Addr        // RPF neighbour (zero: source directly attached)
	// Down holds the per-interface state of every non-RPF interface.
	Down  map[*netem.Interface]*Downstream[E, D]
	State E

	c      *Core[E, D]
	expiry *sim.Timer // the data timeout

	// winner is the best Assert heard on the RPF interface; UpstreamNbr
	// follows it, not whichever forwarder asserted last.
	winner    assertTuple
	hasWinner bool
}

// assertTuple is what an Assert election compares.
type assertTuple struct {
	pref, metric uint32
	addr         ipv6.Addr
}

// beats reports whether t wins the election against o.
func (t assertTuple) beats(o assertTuple) bool {
	return Better(t.pref, t.metric, t.addr, o.pref, o.metric, o.addr)
}

// Downstream is one non-RPF interface of an entry. D is the engine's
// record of its neighbours' demand there.
type Downstream[E, D any] struct {
	Entry *Entry[E, D]
	Ifc   *netem.Interface
	State D

	assertLoser  bool
	assertTimer  *sim.Timer
	lastAssertTx sim.Time
	hasAssertTx  bool

	lastPruneTx sim.Time // rate limiting for non-RPF p2p prunes we send
	hasPruneTx  bool
}

// Hooks are the engine's answers to the core: one for each thing the two
// signalling schemes do differently. The neighbour hooks and
// WinnerChanged may be nil; the rest are required.
type Hooks[E, D any] struct {
	// Demand reports whether ds's neighbours still want the traffic.
	// Local members and Assert losses are the core's to check.
	Demand func(ds *Downstream[E, D]) bool
	// DownState names ds's neighbour-demand state for obs and Entries:
	// "forwarding", "pruned" or "prune-pending".
	DownState func(ds *Downstream[E, D]) string
	// Upstream reports whether the router has told its upstream it wants
	// no traffic, and whether a request to resume awaits an answer.
	Upstream func(ent *Entry[E, D]) (pruned, graftPending bool)
	// Created runs after a new entry's creation is recorded; Deleted
	// stops the engine's timers of an entry being deleted.
	Created, Deleted func(ent *Entry[E, D])
	// Member reacts to a local member appearing on or leaving ds's
	// interface; the core then calls Reconsider.
	Member func(ds *Downstream[E, D], present bool)
	// Reconsider re-aligns the upstream signalling with current demand.
	Reconsider func(ent *Entry[E, D])
	// NoDemand handles data that arrived on the RPF interface while no
	// downstream interface or node-local member wants it.
	NoDemand func(ent *Entry[E, D])
	// NonRPF tells nbr, the only neighbour on point-to-point link ifc, to
	// stop pushing ent's traffic onto our non-RPF side.
	NonRPF func(ent *Entry[E, D], ifc *netem.Interface, nbr ipv6.Addr)
	// WinnerChanged runs when an Assert on the RPF interface made a new
	// router ent.UpstreamNbr.
	WinnerChanged func(ent *Entry[E, D])
	// AssertExpired records ds forwarding again after its assert-loser
	// state timed out; the core then calls Reconsider.
	AssertExpired func(ds *Downstream[E, D])
	// NeighborRestarted runs when a known neighbour's Hello carries a new
	// GenID, before its holdtime is re-armed. NeighborUp runs after a new
	// or restarted neighbour's holdtime is armed. NeighborDown runs after
	// a neighbour said goodbye or timed out.
	NeighborRestarted, NeighborUp, NeighborDown func(ifc *netem.Interface, nb *Neighbor)
	// Message dispatches the engine's own messages (anything but Hello
	// and Assert). The message comes by value, so receiving it allocates
	// nothing.
	Message func(ifc *netem.Interface, src ipv6.Addr, m Msg)
}

// Core is the dense-mode machinery both engines share; see the comment
// at the top of this file.
type Core[E, D any] struct {
	Node    *netem.Node
	Routing engine.UnicastRouting
	Stats   engine.Stats

	// Obs, when non-nil, receives per-(S,G,interface) state-machine
	// transitions and protocol instants. Every emission site is guarded by
	// a nil check, so an unattached engine pays only an untaken branch.
	Obs *obs.Recorder

	// MetricPreference is this router's administrative distance advertised
	// in Asserts (default 101, as for a unicast IGP route).
	MetricPreference uint32

	params Params
	hooks  Hooks[E, D]

	neighbors map[*netem.Interface]map[ipv6.Addr]*Neighbor
	entries   map[SG]*Entry[E, D]

	// localMembers[group][iface] tracks link-local membership from MLD;
	// iface == nil records node-local members (a home agent subscribing on
	// behalf of mobile nodes).
	localMembers map[ipv6.Addr]map[*netem.Interface]int

	hellos map[*netem.Interface]*helloState

	closed bool
}

// helloState is one interface's Hello ticker and the Hello it last sent.
// Packets on links are immutable (DESIGN.md §5.1), so the same packet
// goes out on every tick until its source or contents change.
type helloState struct {
	ticker *sim.Ticker
	pkt    *ipv6.Packet
	msg    Hello
}

// Start runs the core on node: fwd (the engine embedding c) becomes the
// node's multicast forwarder, the core takes the node's PIM messages, and
// every current and future interface runs the protocol.
func (c *Core[E, D]) Start(fwd netem.MulticastForwarder, node *netem.Node, routing engine.UnicastRouting, p Params, h Hooks[E, D]) {
	c.Node = node
	c.Routing = routing
	c.MetricPreference = 101
	c.params = p
	c.hooks = h
	c.neighbors = map[*netem.Interface]map[ipv6.Addr]*Neighbor{}
	c.entries = map[SG]*Entry[E, D]{}
	c.localMembers = map[ipv6.Addr]map[*netem.Interface]int{}
	c.hellos = map[*netem.Interface]*helloState{}
	node.Forwarder = fwd
	node.HandleProto(ipv6.ProtoPIM, c.handlePIM)
	s := node.Sched()
	prev := s.PushTag(p.Tag)
	for _, ifc := range node.Ifaces {
		c.startIface(ifc)
	}
	s.PopTag(prev)
	node.OnAttach(func(ifc *netem.Interface) { c.startIface(ifc) })
}

// Name implements engine.MulticastEngine.
func (c *Core[E, D]) Name() string { return c.params.Name }

// MulticastStats implements engine.MulticastEngine.
func (c *Core[E, D]) MulticastStats() engine.Stats { return c.Stats }

// Close tears the engine down for a node crash: every ticker and timer it
// owns (hellos, neighbor expiries, all (S,G) machinery) is stopped and all
// state is deleted, so nothing owned by the dead incarnation ever fires
// again. A closed engine ignores all input; build a fresh Engine on
// restart.
func (c *Core[E, D]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, h := range c.hellos {
		h.ticker.Stop()
	}
	for _, nbrs := range c.neighbors {
		for _, nb := range nbrs {
			nb.expiry.Stop()
		}
	}
	// Entries() is sorted, so teardown (and its obs emissions) is
	// deterministic regardless of map layout.
	for _, info := range c.Entries() {
		if ent, ok := c.entries[SG{info.Source, info.Group}]; ok {
			c.deleteEntry(ent)
		}
	}
	c.hellos = map[*netem.Interface]*helloState{}
	c.neighbors = map[*netem.Interface]map[ipv6.Addr]*Neighbor{}
	c.localMembers = map[ipv6.Addr]map[*netem.Interface]int{}
}

// AttachRecorder starts feeding state-machine transitions to rec and
// records the current state of any pre-existing (S,G) entries (sorted, so
// the emitted baseline is deterministic).
func (c *Core[E, D]) AttachRecorder(rec *obs.Recorder) {
	c.Obs = rec
	if rec == nil {
		return
	}
	for _, info := range c.Entries() {
		ent := c.entries[SG{info.Source, info.Group}]
		up := "forwarding"
		if info.GraftPending {
			up = "graft-pending"
		} else if info.PrunedUpstream {
			up = "pruned"
		}
		rec.State(c.Node.Name, ent.UpTrack(), up, "")
		for _, ifc := range c.Node.Ifaces {
			if ds := ent.Down[ifc]; ds != nil {
				rec.State(c.Node.Name, ent.DownTrack(ifc), ds.state(), "")
			}
		}
	}
}

// Observability track names: one "up" track per (S,G) for the upstream
// state machine, one track per (S,G, downstream link).

// UpTrack names the entry's upstream obs track.
func (ent *Entry[E, D]) UpTrack() string {
	return ent.c.params.Tag + " " + ent.Source.String() + ">" + ent.Group.String() + " up"
}

// DownTrack names the entry's obs track for downstream interface ifc.
func (ent *Entry[E, D]) DownTrack(ifc *netem.Interface) string {
	name := "?"
	if ifc.Link != nil {
		name = ifc.Link.Name
	}
	return ent.c.params.Tag + " " + ent.Source.String() + ">" + ent.Group.String() + " " + name
}

func (c *Core[E, D]) startIface(ifc *netem.Interface) {
	if c.closed {
		return
	}
	if _, ok := c.hellos[ifc]; ok {
		return
	}
	ifc.JoinGroup(ipv6.AllPIMRouters)
	c.neighbors[ifc] = map[ipv6.Addr]*Neighbor{}
	s := c.Node.Sched()
	c.hellos[ifc] = &helloState{ticker: sim.NewTicker(s, c.params.HelloInterval, c.params.HelloInterval/10, func() {
		c.sendHello(ifc)
	})}
	// Triggered hello on startup, with small jitter.
	s.Schedule(s.Jitter("pimdm-hello", 100*time.Millisecond), func() { c.sendHello(ifc) })
}

// --- message transmission -------------------------------------------------

// SendPIM sends msg from ifc's link-local address to dst.
func (c *Core[E, D]) SendPIM(ifc *netem.Interface, dst ipv6.Addr, msg Message) {
	if !ifc.Up() {
		return
	}
	if pkt, err := packet(ifc.LinkLocal(), dst, msg); err == nil {
		_ = c.Node.OutputOn(ifc, pkt)
	}
}

// packet builds the PIM packet carrying msg from src to dst.
func packet(src, dst ipv6.Addr, msg Message) (*ipv6.Packet, error) {
	body, err := Marshal(src, dst, msg)
	if err != nil {
		return nil, err
	}
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		Proto:   ipv6.ProtoPIM,
		Payload: body,
	}, nil
}

// sendHello sends ifc's Hello, built again only when the interface's
// link-local address or the Hello's holdtime or Generation ID changed
// since the last one.
func (c *Core[E, D]) sendHello(ifc *netem.Interface) {
	if c.closed {
		return
	}
	if h := c.hellos[ifc]; h != nil && ifc.Up() {
		src := ifc.LinkLocal()
		msg := Hello{Holdtime: c.params.HelloHoldtime, GenID: c.params.GenID}
		if h.pkt == nil || h.pkt.Hdr.Src != src || h.msg != msg {
			pkt, err := packet(src, ipv6.AllPIMRouters, &msg)
			if err != nil {
				return
			}
			h.pkt, h.msg = pkt, msg
		}
		_ = c.Node.OutputOn(ifc, h.pkt)
	}
	c.Stats.HellosSent++
}

func (c *Core[E, D]) handlePIM(rx netem.RxPacket) {
	if c.closed {
		return
	}
	m, err := Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
	if err != nil {
		return
	}
	s := c.Node.Sched()
	prev := s.PushTag(c.params.Tag)
	defer s.PopTag(prev)
	switch m.Type {
	case TypeHello:
		c.onHello(rx.Iface, rx.Pkt.Hdr.Src, &m.Hello)
	case TypeAssert:
		c.onAssert(rx.Iface, rx.Pkt.Hdr.Src, &m.Assert)
	default:
		c.hooks.Message(rx.Iface, rx.Pkt.Hdr.Src, m)
	}
}

// --- neighbor tracking ------------------------------------------------------

func (c *Core[E, D]) onHello(ifc *netem.Interface, src ipv6.Addr, h *Hello) {
	nbrs, ok := c.neighbors[ifc]
	if !ok {
		return
	}
	nb, known := nbrs[src]
	if h.Holdtime == 0 { // goodbye
		if known {
			c.removeNeighbor(ifc, nb)
		}
		return
	}
	up := false
	if !known {
		nb = &Neighbor{Addr: src, genID: h.GenID}
		nb.expiry = sim.NewTimer(c.Node.Sched(), func() {
			if cur := nbrs[src]; cur != nil {
				c.removeNeighbor(ifc, cur)
			}
		})
		nbrs[src] = nb
		// A new neighbor: trigger a hello so it learns us quickly.
		c.sendHello(ifc)
		up = true
	} else if h.GenID != nb.genID {
		nb.genID = h.GenID
		if c.hooks.NeighborRestarted != nil {
			c.hooks.NeighborRestarted(ifc, nb)
		}
		up = true
	}
	nb.expiry.Reset(h.Holdtime)
	if up && c.hooks.NeighborUp != nil {
		c.hooks.NeighborUp(ifc, nb)
	}
}

func (c *Core[E, D]) removeNeighbor(ifc *netem.Interface, nb *Neighbor) {
	nb.expiry.Stop()
	delete(c.neighbors[ifc], nb.Addr)
	if c.hooks.NeighborDown != nil {
		c.hooks.NeighborDown(ifc, nb)
	}
}

// HasNeighbors reports whether any PIM router is alive on ifc's link.
func (c *Core[E, D]) HasNeighbors(ifc *netem.Interface) bool {
	return len(c.neighbors[ifc]) > 0
}

// NeighborCount returns the number of live PIM neighbors on ifc.
func (c *Core[E, D]) NeighborCount(ifc *netem.Interface) int { return len(c.neighbors[ifc]) }

// Neighbors returns the live neighbours on ifc, keyed by address. The map
// is the core's own: do not modify it.
func (c *Core[E, D]) Neighbors(ifc *netem.Interface) map[ipv6.Addr]*Neighbor {
	return c.neighbors[ifc]
}

// --- local membership -------------------------------------------------------

// HandleListenerChange feeds MLD listener transitions into the engine (wire
// mld.Router.OnListenerChange to this).
func (c *Core[E, D]) HandleListenerChange(ifc *netem.Interface, group ipv6.Addr, present bool) {
	if c.closed {
		return
	}
	s := c.Node.Sched()
	prev := s.PushTag(c.params.Tag)
	defer s.PopTag(prev)
	if present {
		c.addMember(group, ifc)
	} else {
		c.removeMember(group, ifc)
	}
}

// AddLocalMember registers a node-local member of group (reference
// counted): the home-agent role uses this to receive group traffic it must
// tunnel to mobile nodes. The engine grafts toward sources as needed.
func (c *Core[E, D]) AddLocalMember(group ipv6.Addr) { c.addMember(group, nil) }

// RemoveLocalMember drops one node-local membership reference.
func (c *Core[E, D]) RemoveLocalMember(group ipv6.Addr) { c.removeMember(group, nil) }

// addMember counts one more member of group on ifc (nil: node-local). Only
// the first reference changes forwarding; a further edge for the same
// interface just bumps the count.
func (c *Core[E, D]) addMember(group ipv6.Addr, ifc *netem.Interface) {
	if c.closed {
		return
	}
	m := c.localMembers[group]
	if m == nil {
		m = map[*netem.Interface]int{}
		c.localMembers[group] = m
	}
	m[ifc]++
	if m[ifc] > 1 {
		return // refcount bump only
	}
	c.membershipChanged(group, ifc, true)
}

func (c *Core[E, D]) removeMember(group ipv6.Addr, ifc *netem.Interface) {
	if c.closed {
		return
	}
	m := c.localMembers[group]
	if m == nil {
		return
	}
	if m[ifc] > 1 {
		m[ifc]--
		return
	}
	delete(m, ifc)
	if len(m) == 0 {
		delete(c.localMembers, group)
	}
	c.membershipChanged(group, ifc, false)
}

// membershipChanged walks group's entries after a membership edge on ifc.
func (c *Core[E, D]) membershipChanged(group ipv6.Addr, ifc *netem.Interface, present bool) {
	for _, ent := range c.EntriesSorted() {
		if ent.Group != group {
			continue
		}
		if ifc != nil && ifc != ent.Upstream {
			if ds := ent.Down[ifc]; ds != nil {
				c.hooks.Member(ds, present)
			}
		}
		c.hooks.Reconsider(ent)
	}
}

// HasLocalMember reports whether the node itself holds membership of group
// (AddLocalMember references — home agents subscribing for mobile nodes).
// Invariant checkers use it to compute expected tree demand.
func (c *Core[E, D]) HasLocalMember(group ipv6.Addr) bool {
	return c.localMembers[group][nil] > 0
}

// LinkHasMembers reports whether MLD reported a listener of group on ifc.
func (c *Core[E, D]) LinkHasMembers(ifc *netem.Interface, group ipv6.Addr) bool {
	return c.localMembers[group][ifc] > 0
}

// --- (S,G) state ------------------------------------------------------------

// Lookup returns the live entry for (src, group), if any.
func (c *Core[E, D]) Lookup(src, group ipv6.Addr) (*Entry[E, D], bool) {
	ent, ok := c.entries[SG{src, group}]
	return ent, ok
}

// GetOrCreate returns the entry for (src, group), creating it when the
// source has a unicast route. New state starts flooding: every non-RPF
// interface forwards until its neighbours say otherwise.
func (c *Core[E, D]) GetOrCreate(src, group ipv6.Addr) *Entry[E, D] {
	if c.closed {
		return nil
	}
	key := SG{src, group}
	if ent, ok := c.entries[key]; ok {
		return ent
	}
	upIfc, upNbr, ok := c.Routing.RPFInterface(src)
	if !ok {
		return nil
	}
	s := c.Node.Sched()
	prevTag := s.PushTag(c.params.Tag)
	defer s.PopTag(prevTag)
	ent := &Entry[E, D]{
		SG:          key,
		Upstream:    upIfc,
		UpstreamNbr: upNbr,
		Down:        map[*netem.Interface]*Downstream[E, D]{},
		c:           c,
	}
	ent.expiry = sim.NewTimer(s, func() { c.deleteEntry(ent) })
	ent.expiry.Reset(c.params.DataTimeout)
	for _, ifc := range c.Node.Ifaces {
		if ifc != upIfc {
			ent.Down[ifc] = &Downstream[E, D]{Entry: ent, Ifc: ifc}
		}
	}
	c.entries[key] = ent
	c.Stats.EntriesCreated++
	c.Stats.FloodsStarted++
	if c.Obs != nil {
		up := "direct"
		if upIfc != nil && upIfc.Link != nil {
			up = upIfc.Link.Name
		}
		c.Obs.Instant(c.Node.Name, ent.UpTrack(), "sg-created", "rpf="+up)
		c.Obs.State(c.Node.Name, ent.UpTrack(), "forwarding", "rpf="+up)
		// Iterate the node's interface list (not the map) so the recorded
		// order is deterministic.
		for _, ifc := range c.Node.Ifaces {
			if ent.Down[ifc] != nil {
				c.Obs.State(c.Node.Name, ent.DownTrack(ifc), "forwarding", "")
			}
		}
	}
	c.hooks.Created(ent)
	return ent
}

// keepAlive re-arms the entry's data timeout, as arriving RPF data does.
func (ent *Entry[E, D]) keepAlive() { ent.expiry.Reset(ent.c.params.DataTimeout) }

func (c *Core[E, D]) deleteEntry(ent *Entry[E, D]) {
	ent.expiry.Stop()
	c.hooks.Deleted(ent)
	for _, ds := range ent.Down {
		if ds.assertTimer != nil {
			ds.assertTimer.Stop()
		}
	}
	delete(c.entries, ent.SG)
	if c.Obs != nil {
		c.Obs.State(c.Node.Name, ent.UpTrack(), "deleted", "")
		c.Obs.Instant(c.Node.Name, ent.UpTrack(), "sg-deleted", "")
	}
}

// EntriesSorted returns the live (S,G) entries in (source, group) order.
// Membership changes walk every entry and may transmit per entry (prunes,
// grafts); walking the map directly would let Go's randomized iteration
// order decide the transmission sequence and break trace determinism —
// invisible with a single source, guaranteed to surface with several.
func (c *Core[E, D]) EntriesSorted() []*Entry[E, D] {
	out := make([]*Entry[E, D], 0, len(c.entries))
	for _, ent := range c.entries {
		out = append(out, ent)
	}
	slices.SortFunc(out, func(a, b *Entry[E, D]) int { return compareSG(a.SG, b.SG) })
	return out
}

// EntryCount reports live (S,G) state — the storage load the paper
// attributes to stale trees of moved senders.
func (c *Core[E, D]) EntryCount() int { return len(c.entries) }

// Entries snapshots all (S,G) state, sorted for determinism.
func (c *Core[E, D]) Entries() []engine.SGInfo {
	out := make([]engine.SGInfo, 0, len(c.entries))
	for _, ent := range c.entries {
		out = append(out, c.info(ent))
	}
	slices.SortFunc(out, func(a, b engine.SGInfo) int {
		return compareSG(SG{a.Source, a.Group}, SG{b.Source, b.Group})
	})
	return out
}

// Entry snapshots the (src, group) entry as Entries does, if there is one.
func (c *Core[E, D]) Entry(src, group ipv6.Addr) (engine.SGInfo, bool) {
	ent, ok := c.entries[SG{src, group}]
	if !ok {
		return engine.SGInfo{}, false
	}
	return c.info(ent), true
}

// info snapshots one entry.
func (c *Core[E, D]) info(ent *Entry[E, D]) engine.SGInfo {
	info := engine.SGInfo{Source: ent.Source, Group: ent.Group}
	info.PrunedUpstream, info.GraftPending = c.hooks.Upstream(ent)
	if ent.Upstream != nil {
		info.Upstream = ent.Upstream.Link.Name
	}
	for ifc, ds := range ent.Down {
		if !ifc.Up() {
			continue
		}
		// shouldForward first: local membership overrides withdrawn
		// neighbor demand on the data path, so the snapshot must agree
		// with what ForwardMulticast actually does.
		if c.shouldForward(ds) {
			info.ForwardingOn = append(info.ForwardingOn, ifc.Link.Name)
		} else if ds.assertLoser || c.hooks.DownState(ds) == "pruned" {
			info.PrunedOn = append(info.PrunedOn, ifc.Link.Name)
		}
	}
	slices.Sort(info.ForwardingOn)
	slices.Sort(info.PrunedOn)
	return info
}

// shouldForward: the interface is in the outgoing list if it has local MLD
// members (membership always wins over a neighbour's withdrawal, which
// only withdraws *router* demand) or neighbours that still want the
// traffic, and we have not lost an Assert on it.
func (c *Core[E, D]) shouldForward(ds *Downstream[E, D]) bool {
	if ds.assertLoser || !ds.Ifc.Up() {
		return false
	}
	if c.LinkHasMembers(ds.Ifc, ds.Entry.Group) {
		return true
	}
	return c.hooks.Demand(ds)
}

// HasDemand reports whether any downstream interface or a node-local
// member wants the entry's traffic.
func (ent *Entry[E, D]) HasDemand() bool {
	for _, ds := range ent.Down {
		if ent.c.shouldForward(ds) {
			return true
		}
	}
	return ent.c.HasLocalMember(ent.Group)
}

// state names the interface's current classification.
func (ds *Downstream[E, D]) state() string {
	if ds.assertLoser {
		return "assert-loser"
	}
	return ds.Entry.c.hooks.DownState(ds)
}

// EmitState records the interface's current classification on its obs
// track.
func (ds *Downstream[E, D]) EmitState(detail string) {
	c := ds.Entry.c
	if c.Obs == nil {
		return
	}
	c.Obs.State(c.Node.Name, ds.Entry.DownTrack(ds.Ifc), ds.state(), detail)
}

// --- data path ----------------------------------------------------------------

// ForwardMulticast implements netem.MulticastForwarder.
func (c *Core[E, D]) ForwardMulticast(rx netem.RxPacket) {
	if c.closed {
		return
	}
	src, group := rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst
	// Link-local-sourced packets (MLD reports to global-scope groups, etc.)
	// are never multicast-routed and must not create state.
	if src.IsLinkLocalUnicast() || src.IsUnspecified() {
		return
	}
	c.Stats.DataArrived++
	ent := c.GetOrCreate(src, group)
	if ent == nil {
		c.Stats.RPFFailures++
		return
	}
	// Interface set may have changed (mobility of the router is not
	// modeled, but new interfaces can appear).
	for _, ifc := range c.Node.Ifaces {
		if ifc != ent.Upstream && ent.Down[ifc] == nil {
			ent.Down[ifc] = &Downstream[E, D]{Entry: ent, Ifc: ifc}
		}
	}

	if rx.Iface != ent.Upstream {
		// RPF failure. On a point-to-point router link the peer is pushing
		// traffic we will never accept from there: tell it to stop
		// directly (RFC 3973 §4.3.1). On a multi-access LAN the packet
		// means two forwarders (or a stale-addressed mobile sender, paper
		// §4.3.1): the Assert election resolves it instead.
		c.Stats.RPFFailures++
		if ds := ent.Down[rx.Iface]; ds != nil {
			if c.NeighborCount(rx.Iface) == 1 && rx.Iface.Link.AttachedIfaces() == 2 {
				c.maybeSendNonRPFPrune(ds)
			} else if c.shouldForward(ds) {
				c.maybeSendAssert(ent, rx.Iface)
			}
		}
		return
	}

	ent.keepAlive()

	if rx.HopLimit() > 1 {
		// Iterate the node's interface slice, not the downstream map:
		// replication order decides the per-link transmission sequence and
		// must not vary with map layout (trace reproducibility).
		for _, ifc := range c.Node.Ifaces {
			ds := ent.Down[ifc]
			if ds == nil || !c.shouldForward(ds) {
				continue
			}
			if err := ifc.Forward(rx); err == nil {
				c.Stats.DataForwarded++
			}
		}
	}

	if !ent.HasDemand() {
		c.hooks.NoDemand(ent)
	}
}

// maybeSendNonRPFPrune tells the peer of a point-to-point link that keeps
// forwarding ds's (S,G) onto our non-RPF side to stop. Only called when
// the interface has exactly one neighbour and the link exactly two
// attachments, so the neighbour map holds a single address. Rate limited
// by Params.Reprune: cycles survive until the peer's state expires, then
// one packet round-trips a fresh message.
func (c *Core[E, D]) maybeSendNonRPFPrune(ds *Downstream[E, D]) {
	var nbr ipv6.Addr
	for a := range c.neighbors[ds.Ifc] {
		nbr = a
	}
	now := c.Node.Sched().Now()
	if ds.hasPruneTx && now.Sub(ds.lastPruneTx) < c.params.Reprune {
		return
	}
	c.hooks.NonRPF(ds.Entry, ds.Ifc, nbr)
	c.Stats.PrunesSent++
	if c.Obs != nil {
		c.Obs.Instant(c.Node.Name, ds.Entry.DownTrack(ds.Ifc), "prune-sent", "non-rpf p2p")
	}
	ds.hasPruneTx = true
	ds.lastPruneTx = now
}

// --- assert -------------------------------------------------------------------

func (c *Core[E, D]) assertMetric(ent *Entry[E, D]) (pref, metric uint32) {
	hops, ok := c.Routing.HopsTo(ent.Source)
	if !ok {
		return 0x7fffffff, 0xffffffff
	}
	return c.MetricPreference, uint32(hops)
}

func (c *Core[E, D]) maybeSendAssert(ent *Entry[E, D], ifc *netem.Interface) {
	ds := ent.Down[ifc]
	if ds == nil {
		return
	}
	now := c.Node.Sched().Now()
	if ds.hasAssertTx && now.Sub(ds.lastAssertTx) < c.params.AssertSuppress {
		return
	}
	pref, metric := c.assertMetric(ent)
	c.SendPIM(ifc, ipv6.AllPIMRouters, &Assert{
		Group:            ent.Group,
		Source:           ent.Source,
		MetricPreference: pref,
		Metric:           metric,
	})
	c.Stats.AssertsSent++
	if c.Obs != nil {
		c.Obs.Instant(c.Node.Name, ent.DownTrack(ifc), "assert-sent", "")
	}
	ds.lastAssertTx = now
	ds.hasAssertTx = true
}

func (c *Core[E, D]) onAssert(ifc *netem.Interface, src ipv6.Addr, a *Assert) {
	c.Stats.AssertsHeard++
	ent, ok := c.Lookup(a.Source, a.Group)
	if !ok {
		return
	}
	ds := ent.Down[ifc]
	if ds == nil {
		if ifc == ent.Upstream && !ent.UpstreamNbr.IsUnspecified() {
			c.followAssert(ent, src, a)
		}
		return
	}
	if !c.shouldForward(ds) && ds.assertLoser {
		// Already lost; refresh loser state.
		ds.assertTimer.Reset(c.params.AssertTime)
		return
	}
	myPref, myMetric := c.assertMetric(ent)
	if Better(a.MetricPreference, a.Metric, src, myPref, myMetric, ifc.LinkLocal()) {
		// We lose: stop forwarding on this interface for AssertTime.
		ds.assertLoser = true
		if c.Obs != nil {
			c.Obs.State(c.Node.Name, ent.DownTrack(ifc), "assert-loser", "winner="+src.String())
		}
		if ds.assertTimer == nil {
			ds.assertTimer = sim.NewTimer(c.Node.Sched(), func() {
				ds.assertLoser = false
				c.hooks.AssertExpired(ds)
				c.hooks.Reconsider(ds.Entry)
			})
		}
		ds.assertTimer.Reset(c.params.AssertTime)
		c.hooks.Reconsider(ent)
	} else {
		// We win: answer so the loser learns (rate limited).
		c.maybeSendAssert(ent, ifc)
	}
}

// followAssert handles an Assert heard on the entry's RPF interface: the
// election's winner becomes the router our upstream signalling addresses.
// Both forwarders assert, in either order, so only a better Assert than
// the best heard so far, or a refresh from that winner, moves the choice.
func (c *Core[E, D]) followAssert(ent *Entry[E, D], src ipv6.Addr, a *Assert) {
	heard := assertTuple{a.MetricPreference, a.Metric, src}
	notForwarding := assertTuple{0x7fffffff, 0xffffffff, ent.Upstream.LinkLocal()} // we don't forward here
	if !heard.beats(notForwarding) {
		return
	}
	if ent.hasWinner && src != ent.winner.addr && !heard.beats(ent.winner) {
		return
	}
	ent.winner, ent.hasWinner = heard, true
	if ent.UpstreamNbr != src {
		ent.UpstreamNbr = src
		if c.hooks.WinnerChanged != nil {
			c.hooks.WinnerChanged(ent)
		}
	}
}
