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
//     retransmitted every GraftRetry until the neighbor acknowledges it.
//     Acknowledged state never expires; there is no holdtime and no
//     periodic re-flood.
//   - Hellos carry a Generation ID. A neighbor restarting (or a healed
//     partition re-discovering us) shows up as a new neighbor or a GenID
//     change, and both sides resynchronize: the downstream re-declares
//     its current interest, the upstream voids the dead incarnation's
//     declarations back to the dense-mode flood default.
//
// Everything else — neighbours, local membership, the (S,G) table, the
// data path and the Assert election — is the dense-mode core in
// internal/pimdm, which this engine embeds along with PIM-DM's PIMv2 wire
// codecs (Hello, Assert, and the Declaration message added for it). Both
// engines implement the same engine.MulticastEngine contract, so the
// scenario/check/obs layers drive them identically and the chaos/scale
// sweeps can compare them head to head.
package hpimdm

import (
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// repruneInterval rate-limits safety re-declarations of NoInterest and
// the non-RPF NoInterest sent to a point-to-point peer. A LAN sibling's
// legitimate demand upstream also keeps data arriving, so the rate is
// DataTimeout/3, mirroring PIM-DM's re-prune limit, not GraftRetry.
func repruneInterval(c pimdm.Config) time.Duration {
	return max(c.DataTimeout/3, c.GraftRetry)
}

// Engine is the HPIM-DM instance on one router: the dense-mode core plus
// reliable Interest/NoInterest sync with each neighbour.
type Engine struct {
	pimdm.Core[upState, downState]
	// Config is PIM-DM's timer set. The engine reads its hello, assert,
	// DataTimeout and GraftRetry timers and has no prune holdtime or
	// refresh: acknowledged interest state lives until explicitly changed
	// or its owner dies. DataTimeout is the one soft timer kept, since a
	// vanished source cannot be detected any other way.
	Config pimdm.Config

	// rxSeq is the highest declaration sequence accepted per (S,G) from
	// each live neighbour; stale retransmissions are acked but not
	// re-applied.
	rxSeq map[*pimdm.Neighbor]map[pimdm.SG]uint32
}

type (
	sgEntry         = pimdm.Entry[upState, downState]
	downstreamState = pimdm.Downstream[upState, downState]
)

// upState is the upstream declaration machine of one (S,G): declKnown
// records that the upstream neighbor holds a declaration of ours (content
// declWant); pendingSeq is the unacknowledged sequence (0: acked),
// retried by retry.
type upState struct {
	declKnown  bool
	declWant   bool
	txSeq      uint32
	pendingSeq uint32
	retry      *sim.Timer

	lastDeclSent sim.Time // safety re-declaration rate limit
	hasDeclSent  bool
}

// downState records each neighbor's declared state on one interface
// (true: Interest, false: NoInterest). A neighbor absent from the map is
// unknown and gets the dense-mode default: flood.
type downState struct {
	interest map[ipv6.Addr]bool
}

// New creates the HPIM-DM engine on node and registers it as the node's
// multicast forwarder. The config is validated here, like pimdm.New, so
// one timer set configures either engine.
func New(node *netem.Node, cfg pimdm.Config, routing engine.UnicastRouting) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// A fresh incarnation draws a fresh non-zero Generation ID; neighbors
	// detect the change and resynchronize their hard state.
	var genID uint32
	for genID == 0 {
		genID = node.Sched().RandFor("hpimdm").Uint32()
	}
	e := &Engine{Config: cfg, rxSeq: map[*pimdm.Neighbor]map[pimdm.SG]uint32{}}
	e.Start(e, node, routing, pimdm.Params{
		Name:           "hpimdm",
		Tag:            "hpim",
		GenID:          genID,
		HelloInterval:  cfg.HelloInterval,
		HelloHoldtime:  cfg.HelloHoldtime,
		DataTimeout:    cfg.DataTimeout,
		AssertTime:     cfg.AssertTime,
		AssertSuppress: cfg.AssertSuppress,
		Reprune:        repruneInterval(cfg),
	}, pimdm.Hooks[upState, downState]{
		Demand: e.neighborsWant,
		DownState: func(ds *downstreamState) string {
			if e.downstreamPruned(ds) {
				return "pruned"
			}
			return "forwarding"
		},
		Upstream: func(ent *sgEntry) (bool, bool) {
			return ent.State.prunedUpstream(), ent.State.graftPending()
		},
		Created: func(ent *sgEntry) {
			ent.State.retry = sim.NewTimer(e.Node.Sched(), func() { e.retransmitDecl(ent) })
		},
		Deleted: func(ent *sgEntry) { ent.State.retry.Stop() },
		Member: func(ds *downstreamState, present bool) {
			if present {
				ds.EmitState("member")
			} else {
				ds.EmitState("member-left")
			}
		},
		Reconsider: func(ent *sgEntry) { e.reconsiderUpstream(ent, false) },
		NoDemand:   e.maybeRedeclareNoInterest,
		NonRPF:     e.sendNonRPFNoInterest,
		// The new upstream holds none of our declarations.
		WinnerChanged: func(ent *sgEntry) {
			e.voidDeclaration(ent)
			e.reconsiderUpstream(ent, true)
		},
		AssertExpired: func(ds *downstreamState) { ds.EmitState("assert-expired") },
		// The neighbor restarted: its copy of our declarations and our
		// copy of its declarations are both void.
		NeighborRestarted: e.forgetNeighbor,
		// A new neighbor holds none of our declarations (whether truly new
		// or a healed partition that expired us): resync.
		NeighborUp: func(ifc *netem.Interface, nb *pimdm.Neighbor) { e.resyncUpstream(ifc, nb.Addr) },
		// Hard state is tied to liveness: a dead neighbor's declarations
		// stop counting immediately.
		NeighborDown: e.forgetNeighbor,
		Message:      e.handleMessage,
	})
	return e
}

func (e *Engine) handleMessage(ifc *netem.Interface, src ipv6.Addr, m pimdm.Msg) {
	// JoinPrune/StateRefresh from a foreign soft-state engine are ignored.
	switch m.Type {
	case pimdm.TypeInterest, pimdm.TypeNoInterest:
		e.onDeclaration(ifc, src, &m.Decl)
	case pimdm.TypeDeclAck:
		e.onDeclAck(ifc, src, &m.Decl)
	}
}

// graftPending reports an unacknowledged Interest declaration (the
// cross-engine meaning of "graft pending").
func (st *upState) graftPending() bool {
	return st.declKnown && st.declWant && st.pendingSeq != 0
}

// prunedUpstream reports a standing NoInterest declaration.
func (st *upState) prunedUpstream() bool {
	return st.declKnown && !st.declWant
}

// neighborsWant reports whether any live neighbor on the interface
// declared Interest or nothing (the dense-mode flood default).
func (e *Engine) neighborsWant(ds *downstreamState) bool {
	for addr := range e.Neighbors(ds.Ifc) {
		want, declared := ds.State.interest[addr]
		if !declared || want {
			return true
		}
	}
	return false
}

// downstreamPruned: every live neighbor has explicitly declared
// NoInterest (and no local members) — the hard-state analogue of
// pimdm's pruned downstream interface.
func (e *Engine) downstreamPruned(ds *downstreamState) bool {
	return !e.LinkHasMembers(ds.Ifc, ds.Entry.Group) && e.HasNeighbors(ds.Ifc) && !e.neighborsWant(ds)
}

// --- neighbor resync ------------------------------------------------------------

// forgetNeighbor voids nb's declarations on ifc across all entries and
// reconsiders forwarding/upstream state (sorted walk: the reconsideration
// may transmit per entry).
func (e *Engine) forgetNeighbor(ifc *netem.Interface, nb *pimdm.Neighbor) {
	delete(e.rxSeq, nb)
	for _, ent := range e.EntriesSorted() {
		ds := ent.Down[ifc]
		if ds == nil {
			continue
		}
		if _, had := ds.State.interest[nb.Addr]; !had {
			continue
		}
		delete(ds.State.interest, nb.Addr)
		ds.EmitState("")
		e.reconsiderUpstream(ent, false)
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
	for _, ent := range e.EntriesSorted() {
		if ent.Upstream != ifc || ent.UpstreamNbr.IsUnspecified() {
			continue
		}
		if ifc.Link.Resolve(ent.UpstreamNbr) != owner {
			continue
		}
		e.voidDeclaration(ent)
		e.reconsiderUpstream(ent, true)
	}
}

// voidDeclaration forgets what the upstream neighbor knew about us (it
// lost the state); the next reconsider re-declares as needed.
func (e *Engine) voidDeclaration(ent *sgEntry) {
	ent.State.declKnown = false
	ent.State.pendingSeq = 0
	ent.State.retry.Stop()
}

// --- upstream declaration machine ---------------------------------------------

// reconsiderUpstream aligns the declared state with current demand:
// demand with a standing NoInterest sends Interest (the graft analogue);
// no demand without a standing NoInterest sends NoInterest (the prune
// analogue). An unknown state with demand needs nothing — flooding is
// the default.
func (e *Engine) reconsiderUpstream(ent *sgEntry, resync bool) {
	if ent.UpstreamNbr.IsUnspecified() {
		return
	}
	st := &ent.State
	if ent.HasDemand() {
		if st.declKnown && !st.declWant {
			e.sendDecl(ent, true, resync)
		}
	} else if !st.declKnown || st.declWant {
		e.sendDecl(ent, false, resync)
	}
}

// sendDecl issues a fresh declaration (new sequence, reliable retry).
func (e *Engine) sendDecl(ent *sgEntry, want, resync bool) {
	st := &ent.State
	st.txSeq++
	st.declKnown, st.declWant = true, want
	st.pendingSeq = st.txSeq
	if e.Obs != nil {
		if want {
			e.Obs.State(e.Node.Name, ent.UpTrack(), "graft-pending", "")
		} else {
			e.Obs.State(e.Node.Name, ent.UpTrack(), "pruned", "")
		}
	}
	if resync {
		e.Stats.SyncsSent++
	}
	e.transmitDecl(ent)
	st.retry.Reset(e.Config.GraftRetry)
}

// transmitDecl sends the current declaration (also the retransmit path).
func (e *Engine) transmitDecl(ent *sgEntry) {
	st := &ent.State
	kind := pimdm.TypeNoInterest
	if st.declWant {
		kind = pimdm.TypeInterest
	}
	msg := &pimdm.Declaration{
		Kind:   kind,
		Target: ent.UpstreamNbr,
		Seq:    st.pendingSeq,
		Group:  ent.Group,
		Source: ent.Source,
	}
	e.SendPIM(ent.Upstream, ent.UpstreamNbr, msg)
	now := e.Node.Sched().Now()
	st.lastDeclSent, st.hasDeclSent = now, true
	if st.declWant {
		e.Stats.GraftsSent++
		if e.Obs != nil {
			e.Obs.Instant(e.Node.Name, ent.UpTrack(), "graft-sent", "")
		}
	} else {
		e.Stats.PrunesSent++
		if e.Obs != nil {
			e.Obs.Instant(e.Node.Name, ent.UpTrack(), "prune-sent", "")
		}
	}
}

func (e *Engine) retransmitDecl(ent *sgEntry) {
	if ent.State.pendingSeq == 0 {
		return
	}
	e.Stats.Retransmits++
	e.transmitDecl(ent)
	ent.State.retry.Reset(e.Config.GraftRetry)
}

// maybeRedeclareNoInterest covers the upstream silently forgetting us:
// data arriving without downstream demand means either we never declared
// NoInterest yet, or the upstream lost our declaration without a
// detectable restart (asymmetric neighbor expiry). Both resolve by
// (re-)declaring — rate limited so a LAN sibling's legitimate demand
// upstream doesn't make us re-declare per packet.
func (e *Engine) maybeRedeclareNoInterest(ent *sgEntry) {
	if ent.UpstreamNbr.IsUnspecified() {
		return
	}
	st := &ent.State
	if st.pendingSeq != 0 {
		return // retry timer already carries it
	}
	if !st.declKnown || st.declWant {
		e.sendDecl(ent, false, false)
		return
	}
	now := e.Node.Sched().Now()
	if st.hasDeclSent && now.Sub(st.lastDeclSent) < repruneInterval(e.Config) {
		return
	}
	e.sendDecl(ent, false, false)
}

// onDeclaration processes a downstream neighbor's Interest/NoInterest.
// Hard state only exists between live neighbors: declarations from
// routers we have no hello state for are ignored (their retransmission
// plus the triggered hello converge within a hello exchange).
func (e *Engine) onDeclaration(ifc *netem.Interface, src ipv6.Addr, d *pimdm.Declaration) {
	if !(e.Node.HasAddr(d.Target) || d.Target == ifc.LinkLocal()) {
		return
	}
	nb := e.Neighbors(ifc)[src]
	if nb == nil {
		return
	}
	key := pimdm.SG{Source: d.Source, Group: d.Group}
	want := d.Kind == pimdm.TypeInterest
	if last, seen := e.rxSeq[nb][key]; !seen || d.Seq > last {
		seqs := e.rxSeq[nb]
		if seqs == nil {
			seqs = map[pimdm.SG]uint32{}
			e.rxSeq[nb] = seqs
		}
		seqs[key] = d.Seq
		var ent *sgEntry
		if want {
			// Interest creates state like a Graft does.
			ent = e.GetOrCreate(d.Source, d.Group)
		} else {
			ent, _ = e.Lookup(d.Source, d.Group)
		}
		if ent != nil {
			if ds := ent.Down[ifc]; ds != nil {
				if ds.State.interest == nil {
					ds.State.interest = map[ipv6.Addr]bool{}
				}
				ds.State.interest[src] = want
				ds.EmitState("")
				e.reconsiderUpstream(ent, false)
			}
		}
	}
	// Always acknowledge a known neighbor's declaration (idempotent):
	// duplicates and stale retransmissions must stop the sender's retry.
	ack := &pimdm.Declaration{Kind: pimdm.TypeDeclAck, Target: src, Seq: d.Seq, Group: d.Group, Source: d.Source}
	e.SendPIM(ifc, src, ack)
	e.Stats.AcksSent++
	if want {
		e.Stats.GraftAcksSent++
	}
}

// onDeclAck stops the declaration retry — only when credible: it must
// echo the pending sequence and arrive from the current upstream
// neighbor's attachment on the RPF link (cf. pimdm's Graft-Ack check).
func (e *Engine) onDeclAck(ifc *netem.Interface, src ipv6.Addr, d *pimdm.Declaration) {
	if !(e.Node.HasAddr(d.Target) || d.Target == ifc.LinkLocal()) {
		return
	}
	ent, ok := e.Lookup(d.Source, d.Group)
	if !ok || ent.State.pendingSeq == 0 || d.Seq != ent.State.pendingSeq || ifc != ent.Upstream {
		return
	}
	owner := ifc.Link.Resolve(ent.UpstreamNbr)
	if owner == nil || owner != ifc.Link.Resolve(src) {
		return
	}
	ent.State.pendingSeq = 0
	ent.State.retry.Stop()
	if ent.State.declWant && e.Obs != nil {
		e.Obs.Instant(e.Node.Name, ent.UpTrack(), "graft-ack", "")
		e.Obs.State(e.Node.Name, ent.UpTrack(), "forwarding", "")
	}
}

// sendNonRPFNoInterest tells a p2p peer pushing (S,G) onto our non-RPF
// side to stop (the core rate-limits it). The sequence comes from the
// entry's counter but is not retried: the next arriving datagram
// re-triggers it.
func (e *Engine) sendNonRPFNoInterest(ent *sgEntry, ifc *netem.Interface, nbr ipv6.Addr) {
	ent.State.txSeq++
	e.SendPIM(ifc, nbr, &pimdm.Declaration{
		Kind:   pimdm.TypeNoInterest,
		Target: nbr,
		Seq:    ent.State.txSeq,
		Group:  ent.Group,
		Source: ent.Source,
	})
}
