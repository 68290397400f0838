// Package hpimdm implements a hard-state dense-mode multicast engine
// modeled on HPIM-DM (Oliveira, Silva, Valadas: "HPIM-DM: a fast and
// reliable dense-mode multicast routing protocol", arXiv 2002.06635).
// Where classic PIM-DM keeps soft state — prunes expire after a
// holdtime and traffic periodically re-floods the whole topology — this
// engine synchronizes interest state with each neighbor exactly once,
// reliably:
//
//   - Every (S,G) interest change toward the upstream neighbor is a
//     unicast Declaration carrying a per-entry sequence number,
//     retransmitted every SyncRetry until the neighbor acknowledges it.
//     Acknowledged state never expires; there is no holdtime and no
//     periodic re-flood.
//   - Hellos carry a Generation ID. A neighbor restarting (or a healed
//     partition re-discovering us) shows up as a new neighbor or a GenID
//     change, and both sides resynchronize: the downstream re-declares
//     its current interest, the upstream voids the dead incarnation's
//     declarations back to the dense-mode flood default.
//
// The engine reuses the PIMv2 wire codecs from internal/pimdm (Hello,
// Assert, and the Declaration message added for it) and implements the
// same engine.MulticastEngine contract, so the scenario/check/obs layers
// drive both engines identically and the chaos/scale sweeps can compare
// them head to head.
package hpimdm

import (
	"fmt"
	"sort"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// Config holds the hard-state engine's timers. There is deliberately no
// prune holdtime and no refresh interval: interest state, once
// acknowledged, lives until explicitly changed or its owner dies.
type Config struct {
	// HelloInterval between Hello messages; HelloHoldtime is advertised in
	// them (neighbor liveness is the root of all hard state: a neighbor
	// whose hellos stop takes its declarations with it).
	HelloInterval time.Duration
	HelloHoldtime time.Duration
	// DataTimeout garbage-collects the (S,G) entry of a silent source —
	// the one soft timer kept, since a vanished source can't be detected
	// any other way.
	DataTimeout time.Duration
	// SyncRetry is the Declaration retransmission period until the
	// matching ack arrives.
	SyncRetry time.Duration
	// AssertTime expires assert-loser state; AssertSuppress rate-limits
	// our own Assert transmissions per (entry, interface).
	AssertTime     time.Duration
	AssertSuppress time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	positive := []struct {
		name string
		v    time.Duration
	}{
		{"HelloInterval", c.HelloInterval},
		{"HelloHoldtime", c.HelloHoldtime},
		{"DataTimeout", c.DataTimeout},
		{"SyncRetry", c.SyncRetry},
		{"AssertTime", c.AssertTime},
	}
	for _, p := range positive {
		if p.v <= 0 {
			return fmt.Errorf("hpimdm: %s must be positive, got %v", p.name, p.v)
		}
	}
	if c.AssertSuppress < 0 {
		return fmt.Errorf("hpimdm: AssertSuppress must not be negative, got %v", c.AssertSuppress)
	}
	return nil
}

// DefaultConfig mirrors the PIM-DM defaults where timers are shared.
func DefaultConfig() Config { return FromPIM(pimdm.DefaultConfig()) }

// FromPIM derives the hard-state configuration from a PIM-DM timer set,
// mapping GraftRetry onto SyncRetry. Cross-engine comparisons configure
// both engines from one pimdm.Config so every shared timer matches.
func FromPIM(p pimdm.Config) Config {
	return Config{
		HelloInterval:  p.HelloInterval,
		HelloHoldtime:  p.HelloHoldtime,
		DataTimeout:    p.DataTimeout,
		SyncRetry:      p.GraftRetry,
		AssertTime:     p.AssertTime,
		AssertSuppress: p.AssertSuppress,
	}
}

// Engine is the HPIM-DM instance on one router.
type Engine struct {
	Node    *netem.Node
	Config  Config
	Routing engine.UnicastRouting
	Stats   engine.Stats

	// Obs, when non-nil, receives per-(S,G,interface) state-machine
	// transitions and protocol instants (same track/instant vocabulary as
	// pimdm, so the checker's trace invariants apply unchanged).
	Obs *obs.Recorder

	// MetricPreference is this router's administrative distance in Asserts.
	MetricPreference uint32

	genID     uint32
	neighbors map[*netem.Interface]map[ipv6.Addr]*neighbor
	entries   map[sgKey]*sgEntry

	// localMembers[group][iface]; iface == nil records node-local members.
	localMembers map[ipv6.Addr]map[*netem.Interface]int

	hellos map[*netem.Interface]*sim.Ticker

	closed bool
}

type neighbor struct {
	addr   ipv6.Addr
	genID  uint32
	expiry *sim.Timer
	// rxSeq is the highest declaration sequence accepted per (S,G) from
	// this neighbor; stale retransmissions are acked but not re-applied.
	rxSeq map[sgKey]uint32
}

type sgKey struct {
	src, group ipv6.Addr
}

type sgEntry struct {
	e   *Engine
	key sgKey

	upstream    *netem.Interface
	upstreamNbr ipv6.Addr
	expiry      *sim.Timer // DataTimeout GC

	downstream map[*netem.Interface]*downstreamState

	// Upstream declaration machine: declKnown records that the upstream
	// neighbor holds a declaration of ours (content declWant); pendingSeq
	// is the unacknowledged sequence (0: acked), retried by retry.
	declKnown  bool
	declWant   bool
	txSeq      uint32
	pendingSeq uint32
	retry      *sim.Timer

	lastDeclSent sim.Time // safety re-declaration rate limit
	hasDeclSent  bool
}

type downstreamState struct {
	entry *sgEntry
	ifc   *netem.Interface

	// interest records each neighbor's declared state on this interface
	// (true: Interest, false: NoInterest). A neighbor absent from the map
	// is unknown and gets the dense-mode default: flood.
	interest map[ipv6.Addr]bool

	assertLoser  bool
	assertTimer  *sim.Timer
	lastAssertTx sim.Time
	hasAssertTx  bool

	lastPruneTx sim.Time // rate limiting for non-RPF p2p NoInterest
	hasPruneTx  bool
}

// New creates the HPIM-DM engine on node and registers it as the node's
// multicast forwarder. The config is validated here, like pimdm.New.
func New(node *netem.Node, cfg Config, routing engine.UnicastRouting) *Engine {
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
	// A fresh incarnation draws a fresh non-zero Generation ID; neighbors
	// detect the change and resynchronize their hard state.
	for e.genID == 0 {
		e.genID = s.RandFor("hpimdm").Uint32()
	}
	prev := s.PushTag("hpim")
	for _, ifc := range node.Ifaces {
		e.startIface(ifc)
	}
	s.PopTag(prev)
	node.OnAttach(func(ifc *netem.Interface) { e.startIface(ifc) })
	return e
}

// Name implements engine.MulticastEngine.
func (e *Engine) Name() string { return "hpimdm" }

// MulticastStats implements engine.MulticastEngine.
func (e *Engine) MulticastStats() engine.Stats { return e.Stats }

// Close tears the engine down for a node crash: every ticker and timer is
// stopped and all state deleted. A closed engine ignores all input.
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
	for _, info := range e.Entries() {
		if ent, ok := e.entry(info.Source, info.Group); ok {
			e.deleteEntry(ent)
		}
	}
	e.hellos = map[*netem.Interface]*sim.Ticker{}
	e.neighbors = map[*netem.Interface]map[ipv6.Addr]*neighbor{}
	e.localMembers = map[ipv6.Addr]map[*netem.Interface]int{}
}

// AttachRecorder starts feeding state transitions to rec and emits the
// current state of pre-existing entries as a deterministic baseline.
func (e *Engine) AttachRecorder(rec *obs.Recorder) {
	e.Obs = rec
	if rec == nil {
		return
	}
	for _, info := range e.Entries() {
		ent := e.entries[sgKey{info.Source, info.Group}]
		up := "forwarding"
		if ent.graftPending() {
			up = "graft-pending"
		} else if ent.prunedUpstream() {
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
			case ent.downstreamPruned(ifc, ds):
				st = "pruned"
			}
			rec.State(e.Node.Name, ent.obsDownTrack(ifc), st, "")
		}
	}
}

func (ent *sgEntry) obsUpTrack() string {
	return "hpim " + ent.key.src.String() + ">" + ent.key.group.String() + " up"
}

func (ent *sgEntry) obsDownTrack(ifc *netem.Interface) string {
	name := "?"
	if ifc.Link != nil {
		name = ifc.Link.Name
	}
	return "hpim " + ent.key.src.String() + ">" + ent.key.group.String() + " " + name
}

// graftPending reports an unacknowledged Interest declaration (the
// cross-engine meaning of "graft pending").
func (ent *sgEntry) graftPending() bool {
	return ent.declKnown && ent.declWant && ent.pendingSeq != 0
}

// prunedUpstream reports a standing NoInterest declaration.
func (ent *sgEntry) prunedUpstream() bool {
	return ent.declKnown && !ent.declWant
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
	s.Schedule(s.Jitter("pimdm-hello", 100*time.Millisecond), func() { e.sendHello(ifc) })
}

// --- message transmission -----------------------------------------------------

func (e *Engine) sendPIM(ifc *netem.Interface, dst ipv6.Addr, msg pimdm.Message) {
	if !ifc.Up() {
		return
	}
	src := ifc.LinkLocal()
	body, err := pimdm.Marshal(src, dst, msg)
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
	e.sendPIM(ifc, ipv6.AllPIMRouters, &pimdm.Hello{Holdtime: e.Config.HelloHoldtime, GenID: e.genID})
	e.Stats.HellosSent++
}

// --- ingress ------------------------------------------------------------------

func (e *Engine) handlePIM(rx netem.RxPacket) {
	if e.closed {
		return
	}
	msg, err := pimdm.Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
	if err != nil {
		return
	}
	s := e.Node.Sched()
	prev := s.PushTag("hpim")
	defer s.PopTag(prev)
	switch m := msg.(type) {
	case *pimdm.Hello:
		e.onHello(rx.Iface, rx.Pkt.Hdr.Src, m)
	case *pimdm.Assert:
		e.onAssert(rx.Iface, rx.Pkt.Hdr.Src, m)
	case *pimdm.Declaration:
		switch m.Kind {
		case pimdm.TypeInterest, pimdm.TypeNoInterest:
			e.onDeclaration(rx.Iface, rx.Pkt.Hdr.Src, m)
		case pimdm.TypeDeclAck:
			e.onDeclAck(rx.Iface, rx.Pkt.Hdr.Src, m)
		}
	}
	// JoinPrune/StateRefresh from a foreign soft-state engine are ignored.
}

// --- neighbor tracking --------------------------------------------------------

func (e *Engine) onHello(ifc *netem.Interface, src ipv6.Addr, h *pimdm.Hello) {
	nbrs, ok := e.neighbors[ifc]
	if !ok {
		return
	}
	nb, known := nbrs[src]
	if h.Holdtime == 0 { // goodbye
		if known {
			e.removeNeighbor(ifc, nb)
		}
		return
	}
	resync := false
	if !known {
		nb = &neighbor{addr: src, genID: h.GenID, rxSeq: map[sgKey]uint32{}}
		a := src
		nb.expiry = sim.NewTimer(e.Node.Sched(), func() {
			if cur := nbrs[a]; cur != nil {
				e.removeNeighbor(ifc, cur)
			}
		})
		nbrs[src] = nb
		e.sendHello(ifc) // triggered hello so it learns us quickly
		// A new neighbor holds none of our declarations (whether truly new
		// or a healed partition that expired us): resync.
		resync = true
	} else if h.GenID != nb.genID {
		// The neighbor restarted: its copy of our declarations and our
		// copy of its declarations are both void.
		nb.genID = h.GenID
		nb.rxSeq = map[sgKey]uint32{}
		e.clearNeighborInterest(ifc, src)
		resync = true
	}
	nb.expiry.Reset(h.Holdtime)
	if resync {
		e.resyncUpstream(ifc, src)
	}
}

// removeNeighbor drops a dead neighbor and every piece of hard state tied
// to its liveness: its interest declarations stop counting immediately.
func (e *Engine) removeNeighbor(ifc *netem.Interface, nb *neighbor) {
	nb.expiry.Stop()
	delete(e.neighbors[ifc], nb.addr)
	e.clearNeighborInterest(ifc, nb.addr)
}

// clearNeighborInterest voids addr's declarations on ifc across all
// entries and reconsiders forwarding/upstream state (sorted walk: the
// reconsideration may transmit per entry).
func (e *Engine) clearNeighborInterest(ifc *netem.Interface, addr ipv6.Addr) {
	for _, ent := range e.entriesSorted() {
		ds := ent.downstream[ifc]
		if ds == nil {
			continue
		}
		if _, had := ds.interest[addr]; !had {
			continue
		}
		delete(ds.interest, addr)
		ent.emitDownstreamState(ifc, ds, "")
		ent.reconsiderUpstream(false)
	}
}

// resyncUpstream re-declares our interest state to a neighbor that lost
// it (restart or re-discovery), for every entry whose upstream neighbor
// it is. Only NoInterest needs re-declaring: the fresh incarnation's
// default for an unknown neighbor is flood, which already serves demand.
func (e *Engine) resyncUpstream(ifc *netem.Interface, src ipv6.Addr) {
	owner := ifc.Link.Resolve(src)
	if owner == nil {
		return
	}
	for _, ent := range e.entriesSorted() {
		if ent.upstream != ifc || ent.upstreamNbr.IsUnspecified() {
			continue
		}
		if ifc.Link.Resolve(ent.upstreamNbr) != owner {
			continue
		}
		ent.voidDeclaration()
		ent.reconsiderUpstream(true)
	}
}

// voidDeclaration forgets what the upstream neighbor knew about us (it
// lost the state); the next reconsider re-declares as needed.
func (ent *sgEntry) voidDeclaration() {
	ent.declKnown = false
	ent.pendingSeq = 0
	ent.retry.Stop()
}

// HasNeighbors reports whether any router is alive on ifc's link.
func (e *Engine) HasNeighbors(ifc *netem.Interface) bool {
	return len(e.neighbors[ifc]) > 0
}

// NeighborCount returns the number of live neighbors on ifc.
func (e *Engine) NeighborCount(ifc *netem.Interface) int { return len(e.neighbors[ifc]) }

// --- local membership ---------------------------------------------------------

// HandleListenerChange feeds MLD listener transitions into the engine.
func (e *Engine) HandleListenerChange(ifc *netem.Interface, group ipv6.Addr, present bool) {
	if e.closed {
		return
	}
	s := e.Node.Sched()
	prev := s.PushTag("hpim")
	defer s.PopTag(prev)
	if present {
		e.addMember(group, ifc)
	} else {
		e.removeMember(group, ifc)
	}
}

// AddLocalMember registers a node-local member of group (reference
// counted) — the home-agent subscription path.
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
	if m[ifc] > 1 {
		return // refcount bump only
	}
	for _, ent := range e.entriesSorted() {
		if ent.key.group != group {
			continue
		}
		if ifc != nil && ifc != ent.upstream {
			if ds := ent.downstream[ifc]; ds != nil {
				ent.emitDownstreamState(ifc, ds, "member")
			}
		}
		ent.reconsiderUpstream(false)
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
		if ent.key.group != group {
			continue
		}
		if ifc != nil && ifc != ent.upstream {
			if ds := ent.downstream[ifc]; ds != nil {
				ent.emitDownstreamState(ifc, ds, "member-left")
			}
		}
		ent.reconsiderUpstream(false)
	}
}

// HasLocalMember reports node-local membership (AddLocalMember refs).
func (e *Engine) HasLocalMember(group ipv6.Addr) bool {
	return e.localMembers[group][nil] > 0
}

func (e *Engine) hasLinkMembers(ifc *netem.Interface, group ipv6.Addr) bool {
	return e.localMembers[group][ifc] > 0
}

// --- (S,G) state --------------------------------------------------------------

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
	prevTag := sch.PushTag("hpim")
	defer sch.PopTag(prevTag)
	ent := &sgEntry{
		e:           e,
		key:         key,
		upstream:    upIfc,
		upstreamNbr: upNbr,
		downstream:  map[*netem.Interface]*downstreamState{},
	}
	ent.expiry = sim.NewTimer(sch, func() { e.deleteEntry(ent) })
	ent.expiry.Reset(e.Config.DataTimeout)
	ent.retry = sim.NewTimer(sch, func() { ent.retransmitDecl() })
	for _, ifc := range e.Node.Ifaces {
		if ifc != upIfc {
			ent.downstream[ifc] = &downstreamState{entry: ent, ifc: ifc, interest: map[ipv6.Addr]bool{}}
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
		for _, ifc := range e.Node.Ifaces {
			if ent.downstream[ifc] != nil {
				e.Obs.State(e.Node.Name, ent.obsDownTrack(ifc), "forwarding", "")
			}
		}
	}
	return ent
}

func (e *Engine) deleteEntry(ent *sgEntry) {
	ent.expiry.Stop()
	ent.retry.Stop()
	for _, ds := range ent.downstream {
		if ds.assertTimer != nil {
			ds.assertTimer.Stop()
		}
	}
	delete(e.entries, ent.key)
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ent.obsUpTrack(), "deleted", "")
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "sg-deleted", "")
	}
}

// entriesSorted returns live entries in (source, group) order so walks
// that transmit stay deterministic (see pimdm's equivalent).
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

// EntryCount reports live (S,G) state.
func (e *Engine) EntryCount() int { return len(e.entries) }

// Entries snapshots all (S,G) state, sorted for determinism.
func (e *Engine) Entries() []engine.SGInfo {
	out := make([]engine.SGInfo, 0, len(e.entries))
	for key, ent := range e.entries {
		info := engine.SGInfo{
			Source:         key.src,
			Group:          key.group,
			PrunedUpstream: ent.prunedUpstream(),
			GraftPending:   ent.graftPending(),
		}
		if ent.upstream != nil {
			info.Upstream = ent.upstream.Link.Name
		}
		for ifc, ds := range ent.downstream {
			if !ifc.Up() {
				continue
			}
			// shouldForward first: local membership overrides withdrawn
			// neighbor interest, so the snapshot must agree with what
			// ForwardMulticast actually does.
			if ent.shouldForward(ifc, ds) {
				info.ForwardingOn = append(info.ForwardingOn, ifc.Link.Name)
			} else if ds.assertLoser || ent.downstreamPruned(ifc, ds) {
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

// shouldForward: forward on ifc if it has local members, or any live
// neighbor whose declared state is Interest or unknown (dense-mode flood
// default) — and we have not lost an Assert there.
func (ent *sgEntry) shouldForward(ifc *netem.Interface, ds *downstreamState) bool {
	if ds.assertLoser || !ifc.Up() {
		return false
	}
	if ent.e.hasLinkMembers(ifc, ent.key.group) {
		return true
	}
	for addr := range ent.e.neighbors[ifc] {
		want, declared := ds.interest[addr]
		if !declared || want {
			return true
		}
	}
	return false
}

// downstreamPruned: every live neighbor has explicitly declared
// NoInterest (and no local members) — the hard-state analogue of
// pimdm's pruned downstream interface.
func (ent *sgEntry) downstreamPruned(ifc *netem.Interface, ds *downstreamState) bool {
	if ent.e.hasLinkMembers(ifc, ent.key.group) {
		return false
	}
	nbrs := ent.e.neighbors[ifc]
	if len(nbrs) == 0 {
		return false
	}
	for addr := range nbrs {
		want, declared := ds.interest[addr]
		if !declared || want {
			return false
		}
	}
	return true
}

func (ent *sgEntry) hasDownstreamDemand() bool {
	for ifc, ds := range ent.downstream {
		if ent.shouldForward(ifc, ds) {
			return true
		}
	}
	return ent.e.localMembers[ent.key.group][nil] > 0
}

// emitDownstreamState records the interface's current classification.
func (ent *sgEntry) emitDownstreamState(ifc *netem.Interface, ds *downstreamState, detail string) {
	e := ent.e
	if e.Obs == nil {
		return
	}
	st := "forwarding"
	switch {
	case ds.assertLoser:
		st = "assert-loser"
	case ent.downstreamPruned(ifc, ds):
		st = "pruned"
	}
	e.Obs.State(e.Node.Name, ent.obsDownTrack(ifc), st, detail)
}

// --- data path ----------------------------------------------------------------

// ForwardMulticast implements netem.MulticastForwarder.
func (e *Engine) ForwardMulticast(rx netem.RxPacket) {
	if e.closed {
		return
	}
	src, group := rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst
	if src.IsLinkLocalUnicast() || src.IsUnspecified() {
		return
	}
	e.Stats.DataArrived++
	ent := e.getOrCreate(src, group)
	if ent == nil {
		e.Stats.RPFFailures++
		return
	}
	for _, ifc := range e.Node.Ifaces {
		if ifc != ent.upstream && ent.downstream[ifc] == nil {
			ent.downstream[ifc] = &downstreamState{entry: ent, ifc: ifc, interest: map[ipv6.Addr]bool{}}
		}
	}

	if rx.Iface != ent.upstream {
		// RPF failure: on a p2p router link declare NoInterest directly to
		// the pushing peer; on a LAN run the Assert election.
		e.Stats.RPFFailures++
		if ds := ent.downstream[rx.Iface]; ds != nil {
			if e.NeighborCount(rx.Iface) == 1 && rx.Iface.Link.AttachedIfaces() == 2 {
				ent.maybeSendNonRPFNoInterest(rx.Iface, ds)
			} else if ent.shouldForward(rx.Iface, ds) {
				ent.maybeSendAssert(rx.Iface)
			}
		}
		return
	}

	ent.expiry.Reset(e.Config.DataTimeout)

	if rx.Pkt.Hdr.HopLimit > 1 {
		out := rx.Pkt.Forward() // one shared copy for every interface
		for _, ifc := range e.Node.Ifaces {
			ds := ent.downstream[ifc]
			if ds == nil || !ent.shouldForward(ifc, ds) {
				continue
			}
			if err := ifc.Send(&out); err == nil {
				e.Stats.DataForwarded++
			}
		}
	}

	// Data arriving without downstream demand: either we never declared
	// NoInterest yet, or the upstream lost our declaration without a
	// detectable restart (asymmetric neighbor expiry). Both resolve by
	// (re-)declaring — rate limited so a LAN sibling's legitimate demand
	// upstream doesn't make us re-declare per packet.
	if !ent.hasDownstreamDemand() {
		ent.maybeRedeclareNoInterest()
	}
}

// --- upstream declaration machine ---------------------------------------------

// reconsiderUpstream aligns the declared state with current demand:
// demand with a standing NoInterest sends Interest (the graft analogue);
// no demand without a standing NoInterest sends NoInterest (the prune
// analogue). An unknown state with demand needs nothing — flooding is
// the default.
func (ent *sgEntry) reconsiderUpstream(resync bool) {
	if ent.upstreamNbr.IsUnspecified() {
		return
	}
	if ent.hasDownstreamDemand() {
		if ent.declKnown && !ent.declWant {
			ent.sendDecl(true, resync)
		}
	} else if !ent.declKnown || ent.declWant {
		ent.sendDecl(false, resync)
	}
}

// sendDecl issues a fresh declaration (new sequence, reliable retry).
func (ent *sgEntry) sendDecl(want, resync bool) {
	e := ent.e
	ent.txSeq++
	ent.declKnown, ent.declWant = true, want
	ent.pendingSeq = ent.txSeq
	if e.Obs != nil {
		if want {
			e.Obs.State(e.Node.Name, ent.obsUpTrack(), "graft-pending", "")
		} else {
			e.Obs.State(e.Node.Name, ent.obsUpTrack(), "pruned", "")
		}
	}
	if resync {
		e.Stats.SyncsSent++
	}
	ent.transmitDecl()
	ent.retry.Reset(e.Config.SyncRetry)
}

// transmitDecl sends the current declaration (also the retransmit path).
func (ent *sgEntry) transmitDecl() {
	e := ent.e
	kind := pimdm.TypeNoInterest
	if ent.declWant {
		kind = pimdm.TypeInterest
	}
	msg := &pimdm.Declaration{
		Kind:   kind,
		Target: ent.upstreamNbr,
		Seq:    ent.pendingSeq,
		Group:  ent.key.group,
		Source: ent.key.src,
	}
	e.sendPIM(ent.upstream, ent.upstreamNbr, msg)
	now := e.Node.Sched().Now()
	ent.lastDeclSent, ent.hasDeclSent = now, true
	if ent.declWant {
		e.Stats.GraftsSent++
		if e.Obs != nil {
			e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "graft-sent", "")
		}
	} else {
		e.Stats.PrunesSent++
		if e.Obs != nil {
			e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "prune-sent", "")
		}
	}
}

func (ent *sgEntry) retransmitDecl() {
	if ent.pendingSeq == 0 {
		return
	}
	ent.e.Stats.Retransmits++
	ent.transmitDecl()
	ent.retry.Reset(ent.e.Config.SyncRetry)
}

// maybeRedeclareNoInterest covers the upstream silently forgetting us:
// if our NoInterest is supposedly standing but RPF data keeps arriving,
// re-assert it at a low rate (a LAN sibling's demand also produces this
// pattern legitimately, so the rate is DataTimeout/3, mirroring pimdm's
// re-prune limit, not SyncRetry).
func (ent *sgEntry) maybeRedeclareNoInterest() {
	e := ent.e
	if ent.upstreamNbr.IsUnspecified() {
		return
	}
	if ent.pendingSeq != 0 {
		return // retry timer already carries it
	}
	if !ent.declKnown || ent.declWant {
		ent.sendDecl(false, false)
		return
	}
	rateLimit := e.Config.DataTimeout / 3
	if rateLimit < e.Config.SyncRetry {
		rateLimit = e.Config.SyncRetry
	}
	now := e.Node.Sched().Now()
	if ent.hasDeclSent && now.Sub(ent.lastDeclSent) < rateLimit {
		return
	}
	ent.sendDecl(false, false)
}

// onDeclaration processes a downstream neighbor's Interest/NoInterest.
// Hard state only exists between live neighbors: declarations from
// routers we have no hello state for are ignored (their retransmission
// plus the triggered hello converge within a hello exchange).
func (e *Engine) onDeclaration(ifc *netem.Interface, src ipv6.Addr, d *pimdm.Declaration) {
	if !(e.Node.HasAddr(d.Target) || d.Target == ifc.LinkLocal()) {
		return
	}
	nb := e.neighbors[ifc][src]
	if nb == nil {
		return
	}
	key := sgKey{d.Source, d.Group}
	want := d.Kind == pimdm.TypeInterest
	if last, seen := nb.rxSeq[key]; !seen || d.Seq > last {
		nb.rxSeq[key] = d.Seq
		var ent *sgEntry
		if want {
			// Interest creates state like a Graft does.
			ent = e.getOrCreate(d.Source, d.Group)
		} else {
			ent, _ = e.entry(d.Source, d.Group)
		}
		if ent != nil {
			if ds := ent.downstream[ifc]; ds != nil {
				ds.interest[src] = want
				ent.emitDownstreamState(ifc, ds, "")
				ent.reconsiderUpstream(false)
			}
		}
	}
	// Always acknowledge a known neighbor's declaration (idempotent):
	// duplicates and stale retransmissions must stop the sender's retry.
	ack := &pimdm.Declaration{Kind: pimdm.TypeDeclAck, Target: src, Seq: d.Seq, Group: d.Group, Source: d.Source}
	e.sendPIM(ifc, src, ack)
	e.Stats.AcksSent++
	if want {
		e.Stats.GraftAcksSent++
	}
}

// onDeclAck stops the declaration retry — only when credible: it must
// echo the pending sequence and arrive from the current upstream
// neighbor's attachment on the RPF link (cf. pimdm.onGraftAck).
func (e *Engine) onDeclAck(ifc *netem.Interface, src ipv6.Addr, d *pimdm.Declaration) {
	if !(e.Node.HasAddr(d.Target) || d.Target == ifc.LinkLocal()) {
		return
	}
	ent, ok := e.entry(d.Source, d.Group)
	if !ok || ent.pendingSeq == 0 || d.Seq != ent.pendingSeq || ifc != ent.upstream {
		return
	}
	owner := ifc.Link.Resolve(ent.upstreamNbr)
	if owner == nil || owner != ifc.Link.Resolve(src) {
		return
	}
	ent.pendingSeq = 0
	ent.retry.Stop()
	if ent.declWant && e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsUpTrack(), "graft-ack", "")
		e.Obs.State(e.Node.Name, ent.obsUpTrack(), "forwarding", "")
	}
}

// maybeSendNonRPFNoInterest tells a p2p peer pushing (S,G) onto our
// non-RPF side to stop, rate limited like pimdm's non-RPF prune. The
// sequence comes from the entry's counter but is not retried: the next
// arriving datagram re-triggers it.
func (ent *sgEntry) maybeSendNonRPFNoInterest(ifc *netem.Interface, ds *downstreamState) {
	e := ent.e
	var nbr ipv6.Addr
	for a := range e.neighbors[ifc] {
		nbr = a
	}
	now := e.Node.Sched().Now()
	rateLimit := e.Config.DataTimeout / 3
	if rateLimit < e.Config.SyncRetry {
		rateLimit = e.Config.SyncRetry
	}
	if ds.hasPruneTx && now.Sub(ds.lastPruneTx) < rateLimit {
		return
	}
	ent.txSeq++
	msg := &pimdm.Declaration{
		Kind:   pimdm.TypeNoInterest,
		Target: nbr,
		Seq:    ent.txSeq,
		Group:  ent.key.group,
		Source: ent.key.src,
	}
	e.sendPIM(ifc, nbr, msg)
	e.Stats.PrunesSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.obsDownTrack(ifc), "prune-sent", "non-rpf p2p")
	}
	ds.hasPruneTx = true
	ds.lastPruneTx = now
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
	e.sendPIM(ifc, ipv6.AllPIMRouters, &pimdm.Assert{
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

func (e *Engine) onAssert(ifc *netem.Interface, src ipv6.Addr, a *pimdm.Assert) {
	e.Stats.AssertsHeard++
	ent, ok := e.entry(a.Source, a.Group)
	if !ok {
		return
	}
	ds := ent.downstream[ifc]
	if ds == nil {
		// Assert on our upstream interface: the winner becomes the router
		// our declarations address — hard state must follow it.
		if ifc == ent.upstream && !ent.upstreamNbr.IsUnspecified() {
			myPref, myMetric := uint32(0x7fffffff), uint32(0xffffffff)
			if pimdm.Better(a.MetricPreference, a.Metric, src, myPref, myMetric, ifc.LinkLocal()) && ent.upstreamNbr != src {
				ent.upstreamNbr = src
				// The new upstream holds none of our declarations.
				ent.voidDeclaration()
				ent.reconsiderUpstream(true)
			}
		}
		return
	}
	if !ent.shouldForward(ifc, ds) && ds.assertLoser {
		ds.assertTimer.Reset(e.Config.AssertTime)
		return
	}
	myPref, myMetric := ent.assertMetric()
	if pimdm.Better(a.MetricPreference, a.Metric, src, myPref, myMetric, ifc.LinkLocal()) {
		ds.assertLoser = true
		if e.Obs != nil {
			e.Obs.State(e.Node.Name, ent.obsDownTrack(ifc), "assert-loser", "winner="+src.String())
		}
		if ds.assertTimer == nil {
			ds.assertTimer = sim.NewTimer(e.Node.Sched(), func() {
				ds.assertLoser = false
				ds.entry.emitDownstreamState(ds.ifc, ds, "assert-expired")
				ds.entry.reconsiderUpstream(false)
			})
		}
		ds.assertTimer.Reset(e.Config.AssertTime)
		ent.reconsiderUpstream(false)
	} else {
		ent.maybeSendAssert(ifc)
	}
}
