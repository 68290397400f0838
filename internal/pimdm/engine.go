package pimdm

import (
	"fmt"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
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
	// arrives (default 3s). HPIM-DM retransmits its declarations on it.
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

// repruneInterval rate-limits re-prunes: state already pruned upstream
// but data keeps arriving (the upstream LAN has other demand), or a
// point-to-point peer keeps pushing onto our non-RPF side.
func (c Config) repruneInterval() time.Duration {
	return max(c.PruneHoldtime/3, c.PruneDelay)
}

// Engine is the PIM-DM instance on one router: the dense-mode Core plus
// PIM-DM's soft-state upstream signalling (Prune with its LAN delay, the
// overriding Join, Graft/Graft-Ack, State Refresh).
type Engine struct {
	Core[upState, downState]
	Config Config
}

type (
	sgEntry         = Entry[upState, downState]
	downstreamState = Downstream[upState, downState]
)

// upState is PIM-DM's upstream state for one (S,G).
type upState struct {
	prunedUpstream bool     // we sent a Prune toward the source
	lastPruneSent  sim.Time // rate limiting
	hasPruneSent   bool
	graftPending   bool        // awaiting Graft-Ack
	graftTimer     *sim.Timer  // retransmission
	joinOverride   *sim.Timer  // pending override Join
	refreshTicker  *sim.Ticker // State Refresh origination (first-hop only)
}

// downState is the prune state of one downstream interface.
type downState struct {
	pruned          bool
	pruneTimer      *sim.Timer    // pruned-state lifetime, then resume flooding
	pruneDelay      *sim.Timer    // LAN prune delay before acting on a Prune
	pendingHoldtime time.Duration // holdtime of the Prune being delayed
}

// New creates the PIM-DM engine on node and registers it as the node's
// multicast forwarder. All current and future interfaces run PIM. The
// config is validated here — every construction path (hand-built
// scenarios and topo-built routers alike) goes through New, so a bad
// timer set fails loudly at build time instead of misbehaving mid-run.
func New(node *netem.Node, cfg Config, routing engine.UnicastRouting) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{Config: cfg}
	e.Start(e, node, routing, Params{
		Name:           "pimdm",
		Tag:            "pim",
		HelloInterval:  cfg.HelloInterval,
		HelloHoldtime:  cfg.HelloHoldtime,
		DataTimeout:    cfg.DataTimeout,
		AssertTime:     cfg.AssertTime,
		AssertSuppress: cfg.AssertSuppress,
		Reprune:        cfg.repruneInterval(),
	}, Hooks[upState, downState]{
		// A neighbor's Prune withdraws the demand of every router on the
		// link until another router overrides it with a Join.
		Demand: func(ds *downstreamState) bool {
			return e.HasNeighbors(ds.Ifc) && !ds.State.pruned
		},
		DownState: func(ds *downstreamState) string {
			switch {
			case ds.State.pruned:
				return "pruned"
			case ds.State.pruneDelay != nil && ds.State.pruneDelay.Running():
				return "prune-pending"
			}
			return "forwarding"
		},
		Upstream: func(ent *sgEntry) (bool, bool) {
			return ent.State.prunedUpstream, ent.State.graftPending
		},
		Created: e.entryCreated,
		Deleted: e.entryDeleted,
		// A member appearing revives a pruned interface at once.
		Member: func(ds *downstreamState, present bool) {
			if present && ds.State.pruned {
				e.unprune(ds)
			}
		},
		Reconsider:    e.reconsiderUpstream,
		NoDemand:      e.maybeSendPrune,
		NonRPF:        e.sendNonRPFPrune,
		AssertExpired: e.assertExpired,
		Message:       e.handleMessage,
	})
	return e
}

func (e *Engine) entryCreated(ent *sgEntry) {
	s := e.Node.Sched()
	ent.State.graftTimer = sim.NewTimer(s, func() { e.sendGraft(ent) })
	ent.State.joinOverride = sim.NewTimer(s, func() { e.sendOverrideJoin(ent) })
	e.startStateRefresh(ent)
}

func (e *Engine) entryDeleted(ent *sgEntry) {
	ent.State.graftTimer.Stop()
	ent.State.joinOverride.Stop()
	if ent.State.refreshTicker != nil {
		ent.State.refreshTicker.Stop()
	}
	for _, ds := range ent.Down {
		if ds.State.pruneDelay != nil {
			ds.State.pruneDelay.Stop()
		}
		if ds.State.pruneTimer != nil {
			ds.State.pruneTimer.Stop()
		}
	}
}

func (e *Engine) handleMessage(ifc *netem.Interface, src ipv6.Addr, m Msg) {
	switch m.Type {
	case TypeJoinPrune:
		e.onJoinPrune(ifc, src, &m.JoinPrune)
	case TypeGraft:
		e.onGraft(ifc, src, &m.JoinPrune)
	case TypeGraftAck:
		e.onGraftAck(ifc, src, &m.JoinPrune)
	case TypeStateRefresh:
		e.onStateRefresh(ifc, &m.StateRefresh)
	}
}

// --- prune / join / graft ---------------------------------------------------

func (e *Engine) maybeSendPrune(ent *sgEntry) {
	if ent.UpstreamNbr.IsUnspecified() {
		return // source is directly attached; nowhere to prune
	}
	st := &ent.State
	now := e.Node.Sched().Now()
	// Re-prunes (state already pruned upstream but data keeps arriving,
	// e.g. because the upstream LAN has local members) are rate limited;
	// the initial prune always goes out.
	if st.hasPruneSent && st.prunedUpstream && now.Sub(st.lastPruneSent) < e.Config.repruneInterval() {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: ent.UpstreamNbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group:  ent.Group,
			Prunes: []ipv6.Addr{ent.Source},
		}},
	}
	e.SendPIM(ent.Upstream, ipv6.AllPIMRouters, msg)
	e.Stats.PrunesSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.UpTrack(), "prune-sent", "")
		if !st.prunedUpstream {
			e.Obs.State(e.Node.Name, ent.UpTrack(), "pruned", "")
		}
	}
	st.prunedUpstream = true
	st.hasPruneSent = true
	st.lastPruneSent = now
}

// sendNonRPFPrune prunes an (S,G) off a point-to-point link whose peer
// keeps forwarding onto our non-RPF side (the core rate-limits it).
func (e *Engine) sendNonRPFPrune(ent *sgEntry, ifc *netem.Interface, nbr ipv6.Addr) {
	e.SendPIM(ifc, ipv6.AllPIMRouters, &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: nbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group:  ent.Group,
			Prunes: []ipv6.Addr{ent.Source},
		}},
	})
}

func (e *Engine) sendGraft(ent *sgEntry) {
	if ent.UpstreamNbr.IsUnspecified() || !ent.State.graftPending {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeGraft,
		UpstreamNeighbor: ent.UpstreamNbr,
		Groups: []JoinPruneGroup{{
			Group: ent.Group,
			Joins: []ipv6.Addr{ent.Source},
		}},
	}
	// Grafts are unicast to the upstream neighbor and retransmitted until
	// acknowledged (§4.6).
	e.SendPIM(ent.Upstream, ent.UpstreamNbr, msg)
	e.Stats.GraftsSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.UpTrack(), "graft-sent", "")
	}
	ent.State.graftTimer.Reset(e.Config.GraftRetry)
}

func (e *Engine) sendOverrideJoin(ent *sgEntry) {
	if ent.UpstreamNbr.IsUnspecified() {
		return
	}
	msg := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: ent.UpstreamNbr,
		Holdtime:         e.Config.PruneHoldtime,
		Groups: []JoinPruneGroup{{
			Group: ent.Group,
			Joins: []ipv6.Addr{ent.Source},
		}},
	}
	e.SendPIM(ent.Upstream, ipv6.AllPIMRouters, msg)
	e.Stats.JoinsSent++
	if e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.UpTrack(), "join-sent", "override")
	}
}

// reconsiderUpstream grafts or prunes upstream as downstream demand changes.
func (e *Engine) reconsiderUpstream(ent *sgEntry) {
	if ent.HasDemand() {
		if ent.State.prunedUpstream && !ent.UpstreamNbr.IsUnspecified() {
			ent.State.prunedUpstream = false
			ent.State.graftPending = true
			if e.Obs != nil {
				e.Obs.State(e.Node.Name, ent.UpTrack(), "graft-pending", "")
			}
			e.sendGraft(ent)
		}
	} else if !ent.State.prunedUpstream {
		e.maybeSendPrune(ent)
	}
}

func (e *Engine) onJoinPrune(ifc *netem.Interface, src ipv6.Addr, m *JoinPrune) {
	forUs := e.Node.HasAddr(m.UpstreamNeighbor) || m.UpstreamNeighbor == ifc.LinkLocal()
	for _, g := range m.Groups {
		for _, s := range g.Prunes {
			ent, ok := e.Lookup(s, g.Group)
			if !ok {
				continue
			}
			if forUs {
				// Downstream prune: start the LAN prune delay.
				if ds := ent.Down[ifc]; ds != nil && !ds.State.pruned {
					e.startPruneDelay(ds, m.Holdtime)
				}
			} else if ifc == ent.Upstream {
				// A sibling pruned our upstream LAN; if we still need the
				// traffic, schedule an overriding Join (§4.4.2). A zero
				// JoinOverrideInterval means no random delay, not no
				// override (Jitter returns 0 for a zero bound).
				if ent.HasDemand() && !ent.State.prunedUpstream {
					ent.State.joinOverride.Reset(e.Node.Sched().Jitter("pimdm-hello", e.Config.JoinOverrideInterval))
				}
			}
		}
		for _, s := range g.Joins {
			ent, ok := e.Lookup(s, g.Group)
			if !ok {
				continue
			}
			if forUs {
				// Join cancels a pending prune delay and clears prune state.
				if ds := ent.Down[ifc]; ds != nil {
					e.cancelPrune(ds)
				}
			} else if ifc == ent.Upstream {
				// Someone else sent the override; suppress ours.
				ent.State.joinOverride.Stop()
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
			ent := e.GetOrCreate(s, g.Group)
			if ent == nil {
				continue
			}
			if ds := ent.Down[ifc]; ds != nil {
				e.cancelPrune(ds)
			}
			// Propagate upstream if we had pruned.
			e.reconsiderUpstream(ent)
		}
	}
	e.SendPIM(ifc, src, ack)
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
			ent, ok := e.Lookup(s, g.Group)
			if !ok || !ent.State.graftPending || ifc != ent.Upstream {
				continue
			}
			// The graft was unicast to UpstreamNbr (a routing-table
			// address); the ack comes back sourced from that router's
			// link-local. Accept the ack only if both resolve to the same
			// attachment on the RPF link.
			owner := ifc.Link.Resolve(ent.UpstreamNbr)
			if owner == nil || owner != ifc.Link.Resolve(src) {
				continue
			}
			if e.Obs != nil {
				e.Obs.Instant(e.Node.Name, ent.UpTrack(), "graft-ack", "")
				e.Obs.State(e.Node.Name, ent.UpTrack(), "forwarding", "")
			}
			ent.State.graftPending = false
			ent.State.graftTimer.Stop()
		}
	}
}

// --- downstream state machines -----------------------------------------------

func (e *Engine) startPruneDelay(ds *downstreamState, holdtime time.Duration) {
	st := &ds.State
	if st.pruneDelay == nil {
		st.pruneDelay = sim.NewTimer(e.Node.Sched(), func() { e.prune(ds, st.pendingHoldtime) })
	}
	if st.pruneDelay.Running() {
		return // a prune is already pending on this LAN
	}
	st.pendingHoldtime = holdtime
	st.pruneDelay.Reset(e.Config.PruneDelay)
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.Entry.DownTrack(ds.Ifc), "prune-pending", "")
	}
}

func (e *Engine) prune(ds *downstreamState, holdtime time.Duration) {
	st := &ds.State
	st.pruned = true
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.Entry.DownTrack(ds.Ifc), "pruned", "")
	}
	if holdtime <= 0 {
		holdtime = e.Config.PruneHoldtime
	}
	if st.pruneTimer == nil {
		st.pruneTimer = sim.NewTimer(e.Node.Sched(), func() { e.unprune(ds) })
	}
	st.pruneTimer.Reset(holdtime)
	// PruneEcho (RFC 3973 §4.4.2): on a LAN with several downstream
	// routers, echo the prune we are acting on, addressed to ourselves.
	// A sibling whose overriding Join was lost gets a second chance to
	// override before the outage lasts a whole PruneHoldtime.
	if !e.Config.DisablePruneEcho && e.NeighborCount(ds.Ifc) > 1 {
		echo := &JoinPrune{
			Kind:             TypeJoinPrune,
			UpstreamNeighbor: ds.Ifc.LinkLocal(),
			Holdtime:         holdtime,
			Groups: []JoinPruneGroup{{
				Group:  ds.Entry.Group,
				Prunes: []ipv6.Addr{ds.Entry.Source},
			}},
		}
		e.SendPIM(ds.Ifc, ipv6.AllPIMRouters, echo)
		e.Stats.PruneEchoesSent++
	}
	// All downstream demand gone? Propagate the prune.
	e.reconsiderUpstream(ds.Entry)
}

// unprune resumes forwarding (prune lifetime expired, or a Join/Graft
// arrived).
func (e *Engine) unprune(ds *downstreamState) {
	ds.State.pruned = false
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.Entry.DownTrack(ds.Ifc), "forwarding", "")
	}
	e.reconsiderUpstream(ds.Entry)
}

func (e *Engine) cancelPrune(ds *downstreamState) {
	st := &ds.State
	wasPending := st.pruneDelay != nil && st.pruneDelay.Running()
	if st.pruneDelay != nil {
		st.pruneDelay.Stop()
	}
	if st.pruned {
		if st.pruneTimer != nil {
			st.pruneTimer.Stop()
		}
		e.unprune(ds)
	} else if wasPending {
		// A Join overrode the pending prune: back to forwarding.
		if e.Obs != nil {
			e.Obs.State(e.Node.Name, ds.Entry.DownTrack(ds.Ifc), "forwarding", "join-override")
		}
	}
}

func (e *Engine) assertExpired(ds *downstreamState) {
	if e.Obs != nil {
		e.Obs.State(e.Node.Name, ds.Entry.DownTrack(ds.Ifc), "forwarding", "assert-expired")
	}
}
