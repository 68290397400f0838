// Package engine defines the pluggable multicast-routing engine API. A
// MulticastEngine is the dense-mode protocol instance on one router:
// the scenario layer builds one per router (selected by name from the
// scenario layer's engine table), the netem node hands it the data plane via
// netem.MulticastForwarder, MLD feeds it membership changes, and the
// checker and observability layers consume its structured state dump.
//
// The package is deliberately a leaf: it imports only the substrate
// (ipv6, netem, obs) and never a concrete protocol, so pimdm, hpimdm
// and future sparse-mode/SSM engines can all depend on it without
// cycles.
package engine

import (
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
)

// UnicastRouting is what a multicast engine needs from the unicast
// substrate ("protocol independent": any IGP providing these answers
// will do). routing.RouterTable implements it.
type UnicastRouting interface {
	// RPFInterface returns the interface and upstream neighbor toward src
	// (neighbor is the zero address when src is directly attached).
	RPFInterface(src ipv6.Addr) (*netem.Interface, ipv6.Addr, bool)
	// HopsTo is the unicast metric toward dst, for Assert comparison.
	HopsTo(dst ipv6.Addr) (int, bool)
}

// SGInfo is the structured dump of one (S,G) entry — what the invariant
// checker reads instead of protocol-private state. Engines with
// different internal state machines map onto this common shape:
// PrunedUpstream means "this router has told its upstream it does not
// want the traffic", GraftPending means "this router has asked upstream
// to resume and is awaiting acknowledgment", whatever the wire messages
// are called.
type SGInfo struct {
	Source         ipv6.Addr `json:"source"`
	Group          ipv6.Addr `json:"group"`
	Upstream       string    `json:"upstream,omitempty"` // RPF interface link name ("" if source local)
	PrunedUpstream bool      `json:"pruned_upstream,omitempty"`
	GraftPending   bool      `json:"graft_pending,omitempty"`
	// ForwardingOn / PrunedOn list downstream link names by current
	// forwarding decision, each sorted.
	ForwardingOn []string `json:"forwarding_on,omitempty"`
	PrunedOn     []string `json:"pruned_on,omitempty"`
}

// Stats counts protocol activity; the benchmarks and experiment sweeps
// reproduce the paper's overhead arguments from these. One struct serves
// every engine: soft-state PIM-DM fields and hard-state sync fields
// coexist, with engines leaving foreign counters at zero. PrunesSent /
// JoinsSent / GraftsSent count the engine's equivalent upstream
// signaling (HPIM-DM NoInterest / Interest map onto Prune / Graft) so
// cross-engine overhead columns compare like with like.
type Stats struct {
	HellosSent        uint64
	PrunesSent        uint64
	JoinsSent         uint64
	GraftsSent        uint64
	GraftAcksSent     uint64
	AssertsSent       uint64
	AssertsHeard      uint64
	DataForwarded     uint64 // copies transmitted
	DataArrived       uint64 // datagrams offered to the engine
	RPFFailures       uint64 // arrived on wrong interface
	EntriesCreated    uint64
	FloodsStarted     uint64 // new (S,G) entries = initial floods
	StateRefreshSent  uint64
	StateRefreshHeard uint64
	PruneEchoesSent   uint64

	// Hard-state engine counters (HPIM-DM): reliable per-neighbor sync.
	AcksSent    uint64 // acknowledgments of upstream declarations
	SyncsSent   uint64 // declarations re-sent on neighbor (re)appearance
	Retransmits uint64 // declaration retransmissions (lost or unacked)
}

// Add accumulates o into s field by field (for per-network aggregation).
func (s *Stats) Add(o Stats) {
	s.HellosSent += o.HellosSent
	s.PrunesSent += o.PrunesSent
	s.JoinsSent += o.JoinsSent
	s.GraftsSent += o.GraftsSent
	s.GraftAcksSent += o.GraftAcksSent
	s.AssertsSent += o.AssertsSent
	s.AssertsHeard += o.AssertsHeard
	s.DataForwarded += o.DataForwarded
	s.DataArrived += o.DataArrived
	s.RPFFailures += o.RPFFailures
	s.EntriesCreated += o.EntriesCreated
	s.FloodsStarted += o.FloodsStarted
	s.StateRefreshSent += o.StateRefreshSent
	s.StateRefreshHeard += o.StateRefreshHeard
	s.PruneEchoesSent += o.PruneEchoesSent
	s.AcksSent += o.AcksSent
	s.SyncsSent += o.SyncsSent
	s.Retransmits += o.Retransmits
}

// ControlMessages sums every control-plane message the engine sent: the
// soft-state machinery (Hellos, Prunes, Joins, Grafts, Graft-Acks,
// Asserts, State Refreshes, prune echoes) plus the hard-state sync
// traffic (Acks, Syncs, Retransmits). Data-plane counters are excluded.
// Telemetry samples it to plot control overhead over time per engine.
func (s Stats) ControlMessages() uint64 {
	return s.HellosSent + s.PrunesSent + s.JoinsSent + s.GraftsSent +
		s.GraftAcksSent + s.AssertsSent + s.StateRefreshSent +
		s.PruneEchoesSent + s.AcksSent + s.SyncsSent + s.Retransmits
}

// MulticastEngine is one dense-mode routing protocol instance on one
// router node. Constructors (listed in the scenario layer's engine
// table) must install the engine as the node's multicast forwarder
// and protocol handler; from then on the rest of the system speaks only
// this interface.
//
// Contract notes:
//   - Close must cancel every timer/ticker the engine owns and drop all
//     state, so nothing owned by a crashed incarnation ever fires; a
//     closed engine ignores all input.
//   - Entries must return a deterministically sorted dump (by source,
//     then group) so checker walks and teardown order never depend on
//     map layout.
//   - AttachRecorder must tolerate nil and emit each live state machine's
//     current state as a baseline when attaching mid-run.
//   - AddLocalMember/RemoveLocalMember are node-local (interface-less)
//     membership refcounts — the home-agent path. HandleListenerChange
//     is the MLD querier's per-interface membership edge.
type MulticastEngine interface {
	netem.MulticastForwarder

	// Name is the engine's registry name ("pimdm", "hpimdm").
	Name() string

	Close()
	AttachRecorder(rec *obs.Recorder)

	// Membership.
	HandleListenerChange(ifc *netem.Interface, group ipv6.Addr, present bool)
	AddLocalMember(group ipv6.Addr)
	RemoveLocalMember(group ipv6.Addr)
	HasLocalMember(group ipv6.Addr) bool

	// State dump.
	EntryCount() int
	Entries() []SGInfo
	MulticastStats() Stats

	// Checkpoint returns the deterministic snapshot of all protocol state
	// (see EngineCheckpoint). VerifyCheckpoint compares it with the
	// snapshot of an engine rebuilt to the same virtual time by
	// deterministic replay.
	Checkpoint() EngineCheckpoint
}
