package pimdm

import (
	"fmt"
	"sort"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// Config holds the protocol timers, with the defaults the paper cites.
type Config struct {
	// HelloInterval between Hello messages (default 30s).
	HelloInterval time.Duration
	// HelloHoldtime advertised in Hellos (default 3.5 × HelloInterval).
	HelloHoldtime time.Duration
	// DataTimeout expires an (S,G) entry of a silent source — the paper's
	// "(S,G) timer", default 210s (§3.1: "the time after which an (S,G)
	// state for a silent source will be deleted").
	DataTimeout time.Duration
	// PruneDelay is the paper's T_PruneDel (default 3s): how long an
	// upstream router waits after receiving a Prune before stopping
	// forwarding, giving other routers the chance to send an overriding
	// Join.
	PruneDelay time.Duration
	// PruneHoldtime is how long pruned state lasts before traffic re-floods
	// (default 210s).
	PruneHoldtime time.Duration
	// JoinOverrideInterval bounds the random delay before a router that
	// still needs traffic overrides a sibling's Prune with a Join
	// (default 2.5s, < PruneDelay).
	JoinOverrideInterval time.Duration
	// GraftRetry is the Graft retransmission period until a Graft-Ack
	// arrives (default 3s).
	GraftRetry time.Duration
	// AssertTime expires assert-loser state (default 180s).
	AssertTime time.Duration
	// AssertSuppress rate-limits our own Assert transmissions per
	// (entry, interface).
	AssertSuppress time.Duration
	// DisablePruneEcho turns off the RFC 3973 §4.4.2 PruneEcho (sent when
	// acting on a prune on a LAN with several downstream routers, giving a
	// sibling whose overriding Join was lost a second chance). Exists for
	// the ablation study; leave false.
	DisablePruneEcho bool
	// StateRefreshInterval enables the State Refresh extension when > 0:
	// first-hop routers originate periodic per-(S,G) refreshes that keep
	// prune state alive without the PruneHoldtime re-flood cycle (the
	// mechanism PIM-DM later standardized in RFC 3973). Zero (the default)
	// reproduces the paper-era behavior.
	StateRefreshInterval time.Duration
}

// Validate reports configuration errors: timers the protocol cannot run
// without must be positive, and the optional ones must not be negative.
// JoinOverrideInterval and StateRefreshInterval may be zero (immediate
// overrides / feature disabled); negative values are always wrong.
func (c Config) Validate() error {
	positive := []struct {
		name string
		v    time.Duration
	}{
		{"HelloInterval", c.HelloInterval},
		{"HelloHoldtime", c.HelloHoldtime},
		{"DataTimeout", c.DataTimeout},
		{"PruneDelay", c.PruneDelay},
		{"PruneHoldtime", c.PruneHoldtime},
		{"GraftRetry", c.GraftRetry},
		{"AssertTime", c.AssertTime},
	}
	for _, p := range positive {
		if p.v <= 0 {
			return fmt.Errorf("pimdm: %s must be positive, got %v", p.name, p.v)
		}
	}
	if c.JoinOverrideInterval < 0 {
		return fmt.Errorf("pimdm: JoinOverrideInterval must not be negative, got %v", c.JoinOverrideInterval)
	}
	if c.AssertSuppress < 0 {
		return fmt.Errorf("pimdm: AssertSuppress must not be negative, got %v", c.AssertSuppress)
	}
	if c.StateRefreshInterval < 0 {
		return fmt.Errorf("pimdm: StateRefreshInterval must not be negative, got %v", c.StateRefreshInterval)
	}
	if c.JoinOverrideInterval >= c.PruneDelay {
		return fmt.Errorf("pimdm: JoinOverrideInterval (%v) must stay below PruneDelay (%v) or overrides arrive after the prune fires",
			c.JoinOverrideInterval, c.PruneDelay)
	}
	return nil
}

// DefaultConfig returns the draft defaults used throughout the paper.
func DefaultConfig() Config {
	return Config{
		HelloInterval:        30 * time.Second,
		HelloHoldtime:        105 * time.Second,
		DataTimeout:          210 * time.Second,
		PruneDelay:           3 * time.Second,
		PruneHoldtime:        210 * time.Second,
		JoinOverrideInterval: 2500 * time.Millisecond,
		GraftRetry:           3 * time.Second,
		AssertTime:           180 * time.Second,
		AssertSuppress:       time.Second,
	}
}

// UnicastRouting is what PIM needs from the unicast substrate ("protocol
// independent": any IGP providing these answers will do).
// routing.RouterTable implements it.
type UnicastRouting = engine.UnicastRouting

// Stats counts protocol activity; the benchmarks reproduce the paper's
// overhead arguments from these. The type is the cross-engine stats
// struct; PIM-DM leaves the hard-state sync counters at zero.
type Stats = engine.Stats

// Engine is the PIM-DM instance on one router.
type Engine struct {
	Node    *netem.Node
	Config  Config
	Routing UnicastRouting
	Stats   Stats

	// Obs, when non-nil, receives per-(S,G,interface) state-machine
	// transitions and protocol instants. Every emission site is guarded by
	// a nil check, so an unattached engine pays only an untaken branch.
	Obs *obs.Recorder

	// MetricPreference is this router's administrative distance advertised
	// in Asserts (default 101, as for a unicast IGP route).
	MetricPreference uint32

	neighbors map[*netem.Interface]map[ipv6.Addr]*neighbor
	entries   map[sgKey]*sgEntry

	// localMembers[group][iface] tracks link-local membership from MLD;
	// iface == nil records node-local members (a home agent subscribing on
	// behalf of mobile nodes).
	localMembers map[ipv6.Addr]map[*netem.Interface]int

	hellos map[*netem.Interface]*sim.Ticker

	closed bool
}

// Close tears the engine down for a node crash: every ticker and timer it
// owns (hellos, neighbor expiries, all (S,G) machinery) is stopped and all
// state is deleted, so nothing owned by the dead incarnation ever fires
// again. A closed engine ignores all input; build a fresh Engine on
// restart.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, t := range e.hellos {
		t.Stop()
	}
	for _, nbrs := range e.neighbors {
		for _, nb := range nbrs {
			nb.expiry.Stop()
		}
	}
	// Entries() is sorted, so teardown (and its obs emissions) is
	// deterministic regardless of map layout.
	for _, info := range e.Entries() {
		if ent, ok := e.entry(info.Source, info.Group); ok {
			e.deleteEntry(ent)
		}
	}
	e.hellos = map[*netem.Interface]*sim.Ticker{}
	e.neighbors = map[*netem.Interface]map[ipv6.Addr]*neighbor{}
	e.localMembers = map[ipv6.Addr]map[*netem.Interface]int{}
}

type neighbor struct {
	addr   ipv6.Addr
	expiry *sim.Timer
}

type sgKey struct {
	src, group ipv6.Addr
}

type sgEntry struct {
	e   *Engine
	key sgKey

	upstream    *netem.Interface // RPF interface toward src
	upstreamNbr ipv6.Addr        // RPF neighbor (zero: src directly attached)
	expiry      *sim.Timer       // the 210s data timeout

	downstream map[*netem.Interface]*downstreamState

	// Upstream state.
	prunedUpstream bool     // we sent a Prune toward the source
	lastPruneSent  sim.Time // rate limiting
	hasPruneSent   bool
	graftPending   bool        // awaiting Graft-Ack
	graftTimer     *sim.Timer  // retransmission
	joinOverride   *sim.Timer  // pending override Join
	refreshTicker  *sim.Ticker // State Refresh origination (first-hop only)
}

type downstreamState struct {
	entry *sgEntry
	ifc   *netem.Interface

	pruned          bool
	pruneTimer      *sim.Timer    // pruned-state lifetime, then resume flooding
	pruneDelay      *sim.Timer    // LAN prune delay before acting on a Prune
	pendingHoldtime time.Duration // holdtime of the Prune being delayed

	assertLoser  bool
	assertTimer  *sim.Timer
	lastAssertTx sim.Time
	hasAssertTx  bool

	lastPruneTx sim.Time // rate limiting for non-RPF p2p prunes we send
	hasPruneTx  bool
}

// New creates the PIM-DM engine on node and registers it as the node's
// multicast forwarder. All current and future interfaces run PIM. The
// config is validated here — every construction path (hand-built
// scenarios and topo-built routers alike) goes through New, so a bad
// timer set fails loudly at build time instead of misbehaving mid-run.
func New(node *netem.Node, cfg Config, routing UnicastRouting) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		Node:             node,
		Config:           cfg,
		Routing:          routing,
		MetricPreference: 101,
		neighbors:        map[*netem.Interface]map[ipv6.Addr]*neighbor{},
		entries:          map[sgKey]*sgEntry{},
		localMembers:     map[ipv6.Addr]map[*netem.Interface]int{},
		hellos:           map[*netem.Interface]*sim.Ticker{},
	}
	node.Forwarder = e
	node.HandleProto(ipv6.ProtoPIM, e.handlePIM)
	s := node.Sched()
	prev := s.PushTag("pim")
	for _, ifc := range node.Ifaces {
		e.startIface(ifc)
	}
	s.PopTag(prev)
	node.OnAttach(func(ifc *netem.Interface) { e.startIface(ifc) })
	return e
}

// AttachRecorder starts feeding state-machine transitions to rec and
// records the current state of any pre-existing (S,G) entries (sorted, so
// the emitted baseline is deterministic).
func (e *Engine) AttachRecorder(rec *obs.Recorder) {
	e.Obs = rec
	if rec == nil {
		return
	}
	for _, info := range e.Entries() {
		ent := e.entries[sgKey{info.Source, info.Group}]
		up := "forwarding"
		if ent.graftPending {
			up = "graft-pending"
		} else if ent.prunedUpstream {
			up = "pruned"
		}
		rec.State(e.Node.Name, ent.obsUpTrack(), up, "")
		for _, ifc := range e.Node.Ifaces {
			ds := ent.downstream[ifc]
			if ds == nil {
				continue
			}
			st := "forwarding"
			switch {
			case ds.assertLoser:
				st = "assert-loser"
			case ds.pruned:
				st = "pruned"
			case ds.pruneDelay != nil && ds.pruneDelay.Running():
				st = "prune-pending"
			}
			rec.State(e.Node.Name, ent.obsDownTrack(ifc), st, "")
		}
	}
}

// Observability track names: one "up" track per (S,G) for the upstream
// state machine, one track per (S,G, downstream link).

func (ent *sgEntry) obsUpTrack() string {
	return "pim " + ent.key.src.String() + ">" + ent.key.group.String() + " up"
}

func (ent *sgEntry) obsDownTrack(ifc *netem.Interface) string {
	name := "?"
	if ifc.Link != nil {
		name = ifc.Link.Name
	}
	return "pim " + ent.key.src.String() + ">" + ent.key.group.String() + " " + name
}

func (e *Engine) startIface(ifc *netem.Interface) {
	if e.closed {
		return
	}
	if _, ok := e.hellos[ifc]; ok {
		return
	}
	ifc.JoinGroup(ipv6.AllPIMRouters)
	e.neighbors[ifc] = map[ipv6.Addr]*neighbor{}
	s := e.Node.Sched()
	e.hellos[ifc] = sim.NewTicker(s, e.Config.HelloInterval, e.Config.HelloInterval/10, func() {
		e.sendHello(ifc)
	})
	// Triggered hello on startup, with small jitter.
	s.Schedule(s.Jitter("pimdm-hello", 100*time.Millisecond), func() { e.sendHello(ifc) })
}

// --- message transmission -------------------------------------------------

func (e *Engine) sendPIM(ifc *netem.Interface, dst ipv6.Addr, msg Message) {
	if !ifc.Up() {
		return
	}
	src := ifc.LinkLocal()
	body, err := Marshal(src, dst, msg)
	if err != nil {
		return
	}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		Proto:   ipv6.ProtoPIM,
		Payload: body,
	}
	_ = e.Node.OutputOn(ifc, pkt)
}

func (e *Engine) sendHello(ifc *netem.Interface) {
	if e.closed {
		return
	}
	e.sendPIM(ifc, ipv6.AllPIMRouters, &Hello{Holdtime: e.Config.HelloHoldtime})
	e.Stats.HellosSent++
}

// --- neighbor tracking ------------------------------------------------------

func (e *Engine) handlePIM(rx netem.RxPacket) {
	if e.closed {
		return
	}
	msg, err := Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
	if err != nil {
		return
	}
	s := e.Node.Sched()
	prev := s.PushTag("pim")
	defer s.PopTag(prev)
	switch m := msg.(type) {
	case *Hello:
		e.onHello(rx.Iface, rx.Pkt.Hdr.Src, m)
	case *JoinPrune:
		switch m.Kind {
		case TypeJoinPrune:
			e.onJoinPrune(rx.Iface, rx.Pkt.Hdr.Src, m)
		case TypeGraft:
			e.onGraft(rx.Iface, rx.Pkt.Hdr.Src, m)
		case TypeGraftAck:
			e.onGraftAck(rx.Iface, rx.Pkt.Hdr.Src, m)
		}
	case *Assert:
		e.onAssert(rx.Iface, rx.Pkt.Hdr.Src, m)
	case *StateRefresh:
		e.onStateRefresh(rx.Iface, m)
	}
}

func (e *Engine) onHello(ifc *netem.Interface, src ipv6.Addr, h *Hello) {
	nbrs, ok := e.neighbors[ifc]
	if !ok {
		return
	}
	nb, known := nbrs[src]
	if h.Holdtime == 0 { // goodbye
		if known {
			nb.expiry.Stop()
			delete(nbrs, src)
		}
		return
	}
	if !known {
		nb = &neighbor{addr: src}
		a := src
		nb.expiry = sim.NewTimer(e.Node.Sched(), func() { delete(nbrs, a) })
		nbrs[src] = nb
		// A new neighbor: trigger a hello so it learns us quickly.
		e.sendHello(ifc)
	}
	nb.expiry.Reset(h.Holdtime)
}

// HasNeighbors reports whether any PIM router is alive on ifc's link.
func (e *Engine) HasNeighbors(ifc *netem.Interface) bool {
	return len(e.neighbors[ifc]) > 0
}

// NeighborCount returns the number of live PIM neighbors on ifc.
func (e *Engine) NeighborCount(ifc *netem.Interface) int { return len(e.neighbors[ifc]) }

// --- local membership -------------------------------------------------------

// HandleListenerChange feeds MLD listener transitions into the engine (wire
// mld.Router.OnListenerChange to this).
func (e *Engine) HandleListenerChange(ifc *netem.Interface, group ipv6.Addr, present bool) {
	if e.closed {
		return
	}
	s := e.Node.Sched()
	prev := s.PushTag("pim")
	defer s.PopTag(prev)
	if present {
		e.addMember(group, ifc)
	} else {
		e.removeMember(group, ifc)
	}
}

// AddLocalMember registers a node-local member of group (reference
// counted): the home-agent role uses this to receive group traffic it must
// tunnel to mobile nodes. The engine grafts toward sources as needed.
func (e *Engine) AddLocalMember(group ipv6.Addr) { e.addMember(group, nil) }

// RemoveLocalMember drops one node-local membership reference.
func (e *Engine) RemoveLocalMember(group ipv6.Addr) { e.removeMember(group, nil) }

func (e *Engine) addMember(group ipv6.Addr, ifc *netem.Interface) {
	if e.closed {
		return
	}
	m := e.localMembers[group]
	if m == nil {
		m = map[*netem.Interface]int{}
		e.localMembers[group] = m
	}
	m[ifc]++
	if m[ifc] > 1 && ifc == nil {
		return // refcount bump only
	}
	// Membership appeared: revive matching (S,G) entries.
	for _, ent := range e.entriesSorted() {
		if ent.key.group != group {
			continue
		}
		if ifc != nil && ifc != ent.upstream {
			if ds := ent.downstream[ifc]; ds != nil && ds.pruned {
				ds.unprune()
			}
		}
		ent.reconsiderUpstream()
	}
}

func (e *Engine) removeMember(group ipv6.Addr, ifc *netem.Interface) {
	if e.closed {
		return
	}
	m := e.localMembers[group]
	if m == nil {
		return
	}
	if m[ifc] > 1 {
		m[ifc]--
		return
	}
	delete(m, ifc)
	if len(m) == 0 {
		delete(e.localMembers, group)
	}
	for _, ent := range e.entriesSorted() {
		if ent.key.group == group {
			ent.reconsiderUpstream()
		}
	}
}

// HasLocalMember reports whether the node itself holds membership of group
// (AddLocalMember references — home agents subscribing for mobile nodes).
// Invariant checkers use it to compute expected tree demand.
func (e *Engine) HasLocalMember(group ipv6.Addr) bool { return e.hasNodeMembers(group) }

func (e *Engine) hasLinkMembers(ifc *netem.Interface, group ipv6.Addr) bool {
	return e.localMembers[group][ifc] > 0
}

func (e *Engine) hasNodeMembers(group ipv6.Addr) bool {
	return e.localMembers[group][nil] > 0
}

// --- (S,G) state ------------------------------------------------------------

func (e *Engine) entry(src, group ipv6.Addr) (*sgEntry, bool) {
	ent, ok := e.entries[sgKey{src, group}]
	return ent, ok
}

func (e *Engine) getOrCreate(src, group ipv6.Addr) *sgEntry {
	if e.closed {
		return nil
	}
	key := sgKey{src, group}
	if ent, ok := e.entries[key]; ok {
		return ent
	}
	upIfc, upNbr, ok := e.Routing.RPFInterface(src)
	if !ok {
		return nil
	}
	sch := e.Node.Sched()
	prevTag := sch.PushTag("pim")
	defer sch.PopTag(prevTag)
	ent := &sgEntry{
		e:           e,
		key:         key,
		upstream:    upIfc,
		upstreamNbr: upNbr,
		downstream:  map[*netem.Interface]*downstreamState{},
	}
	s := e.Node.Sched()
	ent.expiry = sim.NewTimer(s, func() { e.deleteEntry(ent) })
	ent.expiry.Reset(e.Config.DataTimeout)
	ent.graftTimer = sim.NewTimer(s, func() { ent.sendGraft() })
	ent.joinOverride = sim.NewTimer(s, func() { ent.sendOverrideJoin() })
	for _, ifc := range e.Node.Ifaces {
		if ifc != upIfc {
			ent.downstream[ifc] = &downstreamState{entry: ent, ifc: ifc}
		}
	}
	e.entries[key] = ent
	e.Stats.EntriesCreated++
	e.Stats.FloodsStarted++
	if e.Obs != nil {
		up := "direct"
		if upIfc != nil && upIfc.Link != nil {
			up = upIfc.Link.Name
		}
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "sg-created", "rpf="+up)
		e.Obs.State(e.Node.Name, ent.obsUpTrack(), "forwarding", "rpf="+up)
		// Iterate the node's interface list (not the map) so the recorded
		// order is deterministic.
		for _, ifc := range e.Node.Ifaces {
			if ent.downstream[ifc] != nil {
				e.Obs.State(e.Node.Name, ent.obsDownTrack(ifc), "forwarding", "")
			}
		}
	}
	ent.startStateRefresh()
	return ent
}

func (e *Engine) deleteEntry(ent *sgEntry) {
	ent.expiry.Stop()
	ent.graftTimer.Stop()
	ent.joinOverride.Stop()
	if ent.refreshTicker != nil {
		ent.refreshTicker.Stop()
	}
	for _, ds := range ent.downstream {
		ds.stopTimers()
	}
	delete(e.entries, ent.key)
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ent.obsUpTrack(), "deleted", "")
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "sg-deleted", "")
	}
}

// entriesSorted returns the live (S,G) entries in (source, group) order.
// Membership changes walk every entry and may transmit per entry (prunes,
// grafts); walking the map directly would let Go's randomized iteration
// order decide the transmission sequence and break trace determinism —
// invisible with a single source, guaranteed to surface with several.
func (e *Engine) entriesSorted() []*sgEntry {
	out := make([]*sgEntry, 0, len(e.entries))
	for _, ent := range e.entries {
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.src != out[j].key.src {
			return out[i].key.src.Less(out[j].key.src)
		}
		return out[i].key.group.Less(out[j].key.group)
	})
	return out
}

// EntryCount reports live (S,G) state — the storage load the paper
// attributes to stale trees of moved senders.
func (e *Engine) EntryCount() int { return len(e.entries) }

// Name implements engine.MulticastEngine.
func (e *Engine) Name() string { return "pimdm" }

// MulticastStats implements engine.MulticastEngine.
func (e *Engine) MulticastStats() Stats { return e.Stats }

// SGInfo is a snapshot of one (S,G) entry for inspection (the
// cross-engine structured state dump).
type SGInfo = engine.SGInfo

// Entries snapshots all (S,G) state, sorted for determinism.
func (e *Engine) Entries() []SGInfo {
	out := make([]SGInfo, 0, len(e.entries))
	for key, ent := range e.entries {
		info := SGInfo{
			Source:         key.src,
			Group:          key.group,
			PrunedUpstream: ent.prunedUpstream,
			GraftPending:   ent.graftPending,
		}
		if ent.upstream != nil {
			info.Upstream = ent.upstream.Link.Name
		}
		for ifc, ds := range ent.downstream {
			if !ifc.Up() {
				continue
			}
			// shouldForward first: local membership overrides a neighbor's
			// Prune on the data path, so the snapshot must agree with what
			// ForwardMulticast actually does.
			if ent.shouldForward(ifc, ds) {
				info.ForwardingOn = append(info.ForwardingOn, ifc.Link.Name)
			} else if ds.pruned || ds.assertLoser {
				info.PrunedOn = append(info.PrunedOn, ifc.Link.Name)
			}
		}
		sort.Strings(info.ForwardingOn)
		sort.Strings(info.PrunedOn)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source.Less(out[j].Source)
		}
		return out[i].Group.Less(out[j].Group)
	})
	return out
}

// shouldForward: interface is in the outgoing list if it has PIM neighbors
// whose demand has not been pruned away, or local MLD members (membership
// always wins over a neighbor's Prune — the Prune only withdraws *router*
// demand), and we have not lost an Assert on it.
func (ent *sgEntry) shouldForward(ifc *netem.Interface, ds *downstreamState) bool {
	if ds.assertLoser || !ifc.Up() {
		return false
	}
	if ent.e.hasLinkMembers(ifc, ent.key.group) {
		return true
	}
	return ent.e.HasNeighbors(ifc) && !ds.pruned
}

func (ent *sgEntry) hasDownstreamDemand() bool {
	for ifc, ds := range ent.downstream {
		if ent.shouldForward(ifc, ds) {
			return true
		}
	}
	return ent.e.hasNodeMembers(ent.key.group)
}

// --- data path ----------------------------------------------------------------

// ForwardMulticast implements netem.MulticastForwarder.
func (e *Engine) ForwardMulticast(rx netem.RxPacket) {
	if e.closed {
		return
	}
	src, group := rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst
	// Link-local-sourced packets (MLD reports to global-scope groups, etc.)
	// are never multicast-routed and must not create state.
	if src.IsLinkLocalUnicast() || src.IsUnspecified() {
		return
	}
	e.Stats.DataArrived++
	ent := e.getOrCreate(src, group)
	if ent == nil {
		e.Stats.RPFFailures++
		return
	}
	// Interface set may have changed (mobility of the router is not
	// modeled, but new interfaces can appear).
	for _, ifc := range e.Node.Ifaces {
		if ifc != ent.upstream && ent.downstream[ifc] == nil {
			ent.downstream[ifc] = &downstreamState{entry: ent, ifc: ifc}
		}
	}

	if rx.Iface != ent.upstream {
		// RPF failure. On a point-to-point router link the peer is pushing
		// traffic we will never accept from there: prune it directly
		// (RFC 3973 §4.3.1). On a multi-access LAN the packet means two
		// forwarders (or a stale-addressed mobile sender, paper §4.3.1):
		// the Assert election resolves it instead.
		e.Stats.RPFFailures++
		if ds := ent.downstream[rx.Iface]; ds != nil {
			if e.NeighborCount(rx.Iface) == 1 && rx.Iface.Link.AttachedIfaces() == 2 {
				ent.maybeSendNonRPFPrune(rx.Iface, ds)
			} else if ent.shouldForward(rx.Iface, ds) {
				ent.maybeSendAssert(rx.Iface)
			}
		}
		return
	}

	ent.expiry.Reset(e.Config.DataTimeout)

	forwarded := false
	if rx.Pkt.Hdr.HopLimit > 1 {
		// Iterate the node's interface slice, not the downstream map:
		// replication order decides the per-link transmission sequence and
		// must not vary with map layout (trace reproducibility).
		out := rx.Pkt.Forward() // one shared copy for every interface
		for _, ifc := range e.Node.Ifaces {
			ds := ent.downstream[ifc]
			if ds == nil || !ent.shouldForward(ifc, ds) {
				continue
			}
			if err := ifc.Send(&out); err == nil {
				e.Stats.DataForwarded++
				forwarded = true
			}
		}
	}
	_ = forwarded

	// No downstream demand: prune toward the source (rate limited).
	if !ent.hasDownstreamDemand() {
		ent.maybeSendPrune()
	}
}

// --- prune / join / graft ---------------------------------------------------

func (ent *sgEntry) maybeSendPrune() {
	e := ent.e
	if ent.upstreamNbr.IsUnspecified() {
		return // source is directly attached; nowhere to prune
	}
	now := e.Node.Sched().Now()
	// Re-prunes (state already pruned upstream but data keeps arriving,
	// e.g. because the upstream LAN has local members) are rate limited;
	// the initial prune always goes out.
	rateLimit := e.Config.PruneHoldtime / 3
	if rateLimit < e.Config.PruneDelay {
		rateLimit = e.Config.PruneDelay
	}
	if ent.hasPruneSent && ent.prunedUpstream && now.Sub(ent.lastPruneSent) < rateLimit {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: ent.upstreamNbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group:  ent.key.group,
			Prunes: []ipv6.Addr{ent.key.src},
		}},
	}
	e.sendPIM(ent.upstream, ipv6.AllPIMRouters, msg)
	e.Stats.PrunesSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "prune-sent", "")
		if !ent.prunedUpstream {
			e.Obs.State(e.Node.Name, ent.obsUpTrack(), "pruned", "")
		}
	}
	ent.prunedUpstream = true
	ent.hasPruneSent = true
	ent.lastPruneSent = now
}

// maybeSendNonRPFPrune prunes an (S,G) off a point-to-point link whose
// peer keeps forwarding onto our non-RPF side. Only called when the
// interface has exactly one PIM neighbor and the link has exactly two
// attachments, so the neighbor map holds a single address. Re-prunes are
// rate limited like upstream re-prunes: cycles survive until the peer's
// prune state expires, then one packet round-trips a fresh prune.
func (ent *sgEntry) maybeSendNonRPFPrune(ifc *netem.Interface, ds *downstreamState) {
	e := ent.e
	var nbr ipv6.Addr
	for a := range e.neighbors[ifc] {
		nbr = a
	}
	now := e.Node.Sched().Now()
	rateLimit := e.Config.PruneHoldtime / 3
	if rateLimit < e.Config.PruneDelay {
		rateLimit = e.Config.PruneDelay
	}
	if ds.hasPruneTx && now.Sub(ds.lastPruneTx) < rateLimit {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: nbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group:  ent.key.group,
			Prunes: []ipv6.Addr{ent.key.src},
		}},
	}
	e.sendPIM(ifc, ipv6.AllPIMRouters, msg)
	e.Stats.PrunesSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsDownTrack(ifc), "prune-sent", "non-rpf p2p")
	}
	ds.hasPruneTx = true
	ds.lastPruneTx = now
}

func (ent *sgEntry) sendGraft() {
	e := ent.e
	if ent.upstreamNbr.IsUnspecified() || !ent.graftPending {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeGraft,
		UpstreamNeighbor: ent.upstreamNbr,
		Groups: []JoinPruneGroup{{
			Group: ent.key.group,
			Joins: []ipv6.Addr{ent.key.src},
		}},
	}
	// Grafts are unicast to the upstream neighbor and retransmitted until
	// acknowledged (§4.6).
	e.sendPIM(ent.upstream, ent.upstreamNbr, msg)
	e.Stats.GraftsSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "graft-sent", "")
	}
	ent.graftTimer.Reset(e.Config.GraftRetry)
}

func (ent *sgEntry) sendOverrideJoin() {
	e := ent.e
	if ent.upstreamNbr.IsUnspecified() {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: ent.upstreamNbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group: ent.key.group,
			Joins: []ipv6.Addr{ent.key.src},
		}},
	}
	e.sendPIM(ent.upstream, ipv6.AllPIMRouters, msg)
	e.Stats.JoinsSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "join-sent", "override")
	}
}

// reconsiderUpstream grafts or prunes upstream as downstream demand changes.
func (ent *sgEntry) reconsiderUpstream() {
	if ent.hasDownstreamDemand() {
		if ent.prunedUpstream && !ent.upstreamNbr.IsUnspecified() {
			ent.prunedUpstream = false
			ent.graftPending = true
			if ent.e.Obs != nil {
				ent.e.Obs.State(ent.e.Node.Name, ent.obsUpTrack(), "graft-pending", "")
			}
			ent.sendGraft()
		}
	} else if !ent.prunedUpstream {
		ent.maybeSendPrune()
	}
}

func (e *Engine) onJoinPrune(ifc *netem.Interface, src ipv6.Addr, m *JoinPrune) {
	forUs := e.Node.HasAddr(m.UpstreamNeighbor) || m.UpstreamNeighbor == ifc.LinkLocal()
	for _, g := range m.Groups {
		for _, s := range g.Prunes {
			ent, ok := e.entry(s, g.Group)
			if !ok {
				continue
			}
			if forUs {
				// Downstream prune: start the LAN prune delay.
				if ds := ent.downstream[ifc]; ds != nil && !ds.pruned {
					ds.startPruneDelay(m.Holdtime)
				}
			} else if ifc == ent.upstream {
				// A sibling pruned our upstream LAN; if we still need the
				// traffic, schedule an overriding Join (§4.4.2). A zero
				// JoinOverrideInterval means no random delay, not no
				// override (Jitter returns 0 for a zero bound).
				if ent.hasDownstreamDemand() && !ent.prunedUpstream {
					ent.joinOverride.Reset(e.Node.Sched().Jitter("pimdm-hello", e.Config.JoinOverrideInterval))
				}
			}
		}
		for _, s := range g.Joins {
			ent, ok := e.entry(s, g.Group)
			if !ok {
				continue
			}
			if forUs {
				// Join cancels a pending prune delay and clears prune state.
				if ds := ent.downstream[ifc]; ds != nil {
					ds.cancelPrune()
				}
			} else if ifc == ent.upstream {
				// Someone else sent the override; suppress ours.
				ent.joinOverride.Stop()
			}
		}
	}
}

func (e *Engine) onGraft(ifc *netem.Interface, src ipv6.Addr, m *JoinPrune) {
	if !(e.Node.HasAddr(m.UpstreamNeighbor) || m.UpstreamNeighbor == ifc.LinkLocal()) {
		return
	}
	ack := &JoinPrune{Kind: TypeGraftAck, UpstreamNeighbor: m.UpstreamNeighbor, Groups: m.Groups}
	for _, g := range m.Groups {
		for _, s := range g.Joins {
			ent := e.getOrCreate(s, g.Group)
			if ent == nil {
				continue
			}
			if ds := ent.downstream[ifc]; ds != nil {
				ds.cancelPrune()
			}
			// Propagate upstream if we had pruned.
			ent.reconsiderUpstream()
		}
	}
	e.sendPIM(ifc, src, ack)
	e.Stats.GraftAcksSent++
}

// onGraftAck stops Graft retransmission — but only for the (S,G) entries
// the ack actually echoes, and only when the ack is credible: it must
// arrive on the entry's RPF interface and originate from the current RPF
// neighbor while a graft is pending. A duplicated or reordered stale ack,
// or an ack from a router that stopped being the RPF neighbor (e.g. after
// an Assert), must not cancel a live retransmission: grafts are the one
// reliable primitive in PIM-DM, and killing the retry orphans the join
// until the next State Refresh or data-driven flood.
func (e *Engine) onGraftAck(ifc *netem.Interface, src ipv6.Addr, m *JoinPrune) {
	for _, g := range m.Groups {
		for _, s := range g.Joins {
			ent, ok := e.entry(s, g.Group)
			if !ok || !ent.graftPending || ifc != ent.upstream {
				continue
			}
			// The graft was unicast to upstreamNbr (a routing-table
			// address); the ack comes back sourced from that router's
			// link-local. Accept the ack only if both resolve to the same
			// attachment on the RPF link.
			owner := ifc.Link.Resolve(ent.upstreamNbr)
			if owner == nil || owner != ifc.Link.Resolve(src) {
				continue
			}
			if e.Obs != nil {
				e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "graft-ack", "")
				e.Obs.State(e.Node.Name, ent.obsUpTrack(), "forwarding", "")
			}
			ent.graftPending = false
			ent.graftTimer.Stop()
		}
	}
}

// --- downstream state machines -----------------------------------------------

func (ds *downstreamState) startPruneDelay(holdtime time.Duration) {
	e := ds.entry.e
	if ds.pruneDelay == nil {
		ds.pruneDelay = sim.NewTimer(e.Node.Sched(), func() { ds.prune(ds.pendingHoldtime) })
	}
	if ds.pruneDelay.Running() {
		return // a prune is already pending on this LAN
	}
	ds.pendingHoldtime = holdtime
	ds.pruneDelay.Reset(e.Config.PruneDelay)
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.entry.obsDownTrack(ds.ifc), "prune-pending", "")
	}
}

func (ds *downstreamState) prune(holdtime time.Duration) {
	e := ds.entry.e
	ds.pruned = true
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.entry.obsDownTrack(ds.ifc), "pruned", "")
	}
	if holdtime <= 0 {
		holdtime = e.Config.PruneHoldtime
	}
	s := e.Node.Sched()
	if ds.pruneTimer == nil {
		ds.pruneTimer = sim.NewTimer(s, func() { ds.unprune() })
	}
	ds.pruneTimer.Reset(holdtime)
	// PruneEcho (RFC 3973 §4.4.2): on a LAN with several downstream
	// routers, echo the prune we are acting on, addressed to ourselves.
	// A sibling whose overriding Join was lost gets a second chance to
	// override before the outage lasts a whole PruneHoldtime.
	if !e.Config.DisablePruneEcho && e.NeighborCount(ds.ifc) > 1 {
		echo := &JoinPrune{
			Kind:             TypeJoinPrune,
			UpstreamNeighbor: ds.ifc.LinkLocal(),
			Holdtime:         holdtime,
			Groups: []JoinPruneGroup{{
				Group:  ds.entry.key.group,
				Prunes: []ipv6.Addr{ds.entry.key.src},
			}},
		}
		e.sendPIM(ds.ifc, ipv6.AllPIMRouters, echo)
		e.Stats.PruneEchoesSent++
	}
	// All downstream demand gone? Propagate the prune.
	ds.entry.reconsiderUpstream()
}

// unprune resumes forwarding (prune lifetime expired, or a Join/Graft
// arrived).
func (ds *downstreamState) unprune() {
	ds.pruned = false
	if e := ds.entry.e; e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.entry.obsDownTrack(ds.ifc), "forwarding", "")
	}
	ds.entry.reconsiderUpstream()
}

func (ds *downstreamState) cancelPrune() {
	wasPending := ds.pruneDelay != nil && ds.pruneDelay.Running()
	if ds.pruneDelay != nil {
		ds.pruneDelay.Stop()
	}
	if ds.pruned {
		if ds.pruneTimer != nil {
			ds.pruneTimer.Stop()
		}
		ds.unprune()
	} else if wasPending {
		// A Join overrode the pending prune: back to forwarding.
		if e := ds.entry.e; e.Obs != nil {
			e.Obs.State(e.Node.Name, ds.entry.obsDownTrack(ds.ifc), "forwarding", "join-override")
		}
	}
}

func (ds *downstreamState) stopTimers() {
	if ds.pruneDelay != nil {
		ds.pruneDelay.Stop()
	}
	if ds.pruneTimer != nil {
		ds.pruneTimer.Stop()
	}
	if ds.assertTimer != nil {
		ds.assertTimer.Stop()
	}
}

// --- assert -------------------------------------------------------------------

func (ent *sgEntry) assertMetric() (pref, metric uint32) {
	hops, ok := ent.e.Routing.HopsTo(ent.key.src)
	if !ok {
		return 0x7fffffff, 0xffffffff
	}
	return ent.e.MetricPreference, uint32(hops)
}

func (ent *sgEntry) maybeSendAssert(ifc *netem.Interface) {
	e := ent.e
	ds := ent.downstream[ifc]
	if ds == nil {
		return
	}
	now := e.Node.Sched().Now()
	if ds.hasAssertTx && now.Sub(ds.lastAssertTx) < e.Config.AssertSuppress {
		return
	}
	pref, metric := ent.assertMetric()
	e.sendPIM(ifc, ipv6.AllPIMRouters, &Assert{
		Group:            ent.key.group,
		Source:           ent.key.src,
		MetricPreference: pref,
		Metric:           metric,
	})
	e.Stats.AssertsSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsDownTrack(ifc), "assert-sent", "")
	}
	ds.lastAssertTx = now
	ds.hasAssertTx = true
}

func (e *Engine) onAssert(ifc *netem.Interface, src ipv6.Addr, a *Assert) {
	e.Stats.AssertsHeard++
	ent, ok := e.entry(a.Source, a.Group)
	if !ok {
		return
	}
	ds := ent.downstream[ifc]
	if ds == nil {
		// Assert heard on our upstream interface: the winner becomes the
		// router we address Grafts/Joins/Prunes to.
		if ifc == ent.upstream && !ent.upstreamNbr.IsUnspecified() {
			myPref, myMetric := uint32(0x7fffffff), uint32(0xffffffff) // we don't forward here
			if Better(a.MetricPreference, a.Metric, src, myPref, myMetric, ifc.LinkLocal()) {
				ent.upstreamNbr = src
			}
		}
		return
	}
	if !ent.shouldForward(ifc, ds) && ds.assertLoser {
		// Already lost; refresh loser state.
		ds.assertTimer.Reset(e.Config.AssertTime)
		return
	}
	myPref, myMetric := ent.assertMetric()
	if Better(a.MetricPreference, a.Metric, src, myPref, myMetric, ifc.LinkLocal()) {
		// We lose: stop forwarding on this interface for AssertTime.
		ds.assertLoser = true
		if e.Obs != nil {
			e.Obs.State(e.Node.Name, ent.obsDownTrack(ifc), "assert-loser", "winner="+src.String())
		}
		if ds.assertTimer == nil {
			ds.assertTimer = sim.NewTimer(e.Node.Sched(), func() {
				ds.assertLoser = false
				if e.Obs != nil {
					e.Obs.State(e.Node.Name, ds.entry.obsDownTrack(ds.ifc), "forwarding", "assert-expired")
				}
				ds.entry.reconsiderUpstream()
			})
		}
		ds.assertTimer.Reset(e.Config.AssertTime)
		ent.reconsiderUpstream()
	} else {
		// We win: answer so the loser learns (rate limited).
		ent.maybeSendAssert(ifc)
	}
}
