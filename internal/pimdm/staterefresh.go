package pimdm

import (
	"encoding/binary"
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// State Refresh — the control-plane fix that PIM-DM later standardized
// (RFC 3973) for exactly the overhead the paper's §4.3.1 quantifies: with
// plain dense mode, prune state expires every PruneHoldtime and traffic
// re-floods the whole network. With State Refresh, the router directly
// attached to the source originates a periodic refresh message per (S,G);
// it propagates down the (whole) broadcast tree and resets prune state and
// (S,G) expiry as it goes, so pruned branches stay pruned without
// re-flooding data.
//
// The feature is optional (Config.StateRefreshInterval > 0 enables it) so
// the ablation benchmark can measure the paper-era behavior against it.

// TypeStateRefresh is the PIM message type (RFC 3973 §4.7.5.1).
const TypeStateRefresh uint8 = 9

// StateRefresh is the periodic tree-maintenance message.
type StateRefresh struct {
	Group      ipv6.Addr
	Source     ipv6.Addr
	Originator ipv6.Addr // first-hop router's address
	// Metric advertised as in Asserts.
	MetricPreference uint32
	Metric           uint32
	// TTL bounds propagation (decremented per hop).
	TTL uint8
	// PruneIndicator is set when the message was forwarded onto a pruned
	// interface.
	PruneIndicator bool
	// Interval the originator uses, so downstream routers can size their
	// keepalives.
	Interval time.Duration
}

// PIMType implements Message.
func (*StateRefresh) PIMType() uint8 { return TypeStateRefresh }

func (sr *StateRefresh) appendBody(b []byte) []byte {
	b = putEncodedGroup(b, sr.Group)
	b = putEncodedUnicast(b, sr.Source)
	b = putEncodedUnicast(b, sr.Originator)
	b = binary.BigEndian.AppendUint32(b, sr.MetricPreference&0x7fffffff)
	b = binary.BigEndian.AppendUint32(b, sr.Metric)
	var flags byte
	if sr.PruneIndicator {
		flags = 0x80
	}
	secs := sr.Interval / time.Second
	if secs > 255 {
		secs = 255
	}
	return append(b, sr.TTL, flags, byte(secs), 0)
}

func (sr *StateRefresh) parse(b []byte) error {
	var err error
	sr.Group, b, err = getEncodedGroup(b)
	if err != nil {
		return err
	}
	sr.Source, b, err = getEncodedUnicast(b)
	if err != nil {
		return err
	}
	sr.Originator, b, err = getEncodedUnicast(b)
	if err != nil {
		return err
	}
	if len(b) != 12 {
		return fmt.Errorf("pimdm: state refresh tail is %d bytes", len(b))
	}
	sr.MetricPreference = binary.BigEndian.Uint32(b[0:4]) & 0x7fffffff
	sr.Metric = binary.BigEndian.Uint32(b[4:8])
	sr.TTL = b[8]
	sr.PruneIndicator = b[9]&0x80 != 0
	sr.Interval = time.Duration(b[10]) * time.Second
	return nil
}

// startStateRefresh arms per-entry origination on the first-hop router.
func (e *Engine) startStateRefresh(ent *sgEntry) {
	if e.Config.StateRefreshInterval <= 0 || !ent.UpstreamNbr.IsUnspecified() {
		return // disabled, or we are not the first-hop router
	}
	if ent.State.refreshTicker != nil {
		return
	}
	ent.State.refreshTicker = sim.NewTicker(e.Node.Sched(), e.Config.StateRefreshInterval, 0, func() {
		e.originateStateRefresh(ent)
	})
}

func (e *Engine) originateStateRefresh(ent *sgEntry) {
	if _, ok := e.entries[ent.SG]; !ok {
		return // entry deleted; ticker about to be stopped
	}
	pref, metric := e.assertMetric(ent)
	sr := &StateRefresh{
		Group:            ent.Group,
		Source:           ent.Source,
		Originator:       ent.Upstream.GlobalAddr(),
		MetricPreference: pref,
		Metric:           metric,
		TTL:              32,
		Interval:         e.Config.StateRefreshInterval,
	}
	e.propagateStateRefresh(ent, sr)
}

// propagateStateRefresh sends the message on every downstream PIM
// interface — including pruned ones, whose prune state it refreshes.
// Iterates the node's interface slice, not the downstream map: emission
// order decides the per-link transmission sequence and must not vary with
// map layout (trace reproducibility, as on the data-replication path).
func (e *Engine) propagateStateRefresh(ent *sgEntry, sr *StateRefresh) {
	for _, ifc := range e.Node.Ifaces {
		ds := ent.Down[ifc]
		if ds == nil || !ifc.Up() || !e.HasNeighbors(ifc) {
			continue
		}
		out := *sr
		out.PruneIndicator = ds.State.pruned || ds.assertLoser
		if ds.State.pruned && ds.State.pruneTimer != nil && ds.State.pruneTimer.Running() {
			// Refresh the prune so it does not expire into a re-flood.
			ds.State.pruneTimer.Reset(e.Config.PruneHoldtime)
		}
		e.SendPIM(ifc, ipv6.AllPIMRouters, &out)
		e.Stats.StateRefreshSent++
	}
}

// onStateRefresh handles a received refresh: accepted only on the RPF
// interface toward the source, it re-arms the (S,G) expiry (state survives
// without data) and propagates downstream with decremented TTL.
func (e *Engine) onStateRefresh(ifc *netem.Interface, sr *StateRefresh) {
	e.Stats.StateRefreshHeard++
	if sr.TTL == 0 {
		return
	}
	// RPF check before instantiating state: a refresh arriving on a
	// non-RPF interface must not create and retain an (S,G) entry — that
	// would inflate EntryCount (the paper's "system load" metric) with
	// state for trees this router is not on.
	ent, ok := e.Lookup(sr.Source, sr.Group)
	if !ok {
		upIfc, _, routeOK := e.Routing.RPFInterface(sr.Source)
		if !routeOK || upIfc != ifc {
			return
		}
		ent = e.GetOrCreate(sr.Source, sr.Group)
		if ent == nil {
			return
		}
	}
	if ifc != ent.Upstream {
		return
	}
	ent.keepAlive()
	// P bit set means our upstream is NOT forwarding to us. If we still
	// have downstream demand, the tree is wedged (e.g. our override Join
	// was lost): re-join. This is the self-healing loop that makes prune
	// state safe to keep alive indefinitely (RFC 3973 §4.5.1).
	if sr.PruneIndicator && ent.HasDemand() && !ent.State.prunedUpstream {
		e.sendOverrideJoin(ent)
	}
	fwd := *sr
	fwd.TTL--
	if fwd.TTL > 0 {
		e.propagateStateRefresh(ent, &fwd)
	}
}
