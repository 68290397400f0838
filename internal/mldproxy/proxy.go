// Package mldproxy implements the hierarchical MLD-proxy mobility
// subsystem (approach #5, beyond the paper's four): proxy routers that
// aggregate MLD listener state upward along a configured proxy tree
// toward a mobility anchor point (M-HMIPv6-style, after Schmidt and
// Wählisch's proxy-multicast analysis) and forward group traffic down
// the tree without any per-proxy PIM state.
//
// A Proxy is one member router of a proxy domain. Toward its upstream
// link it performs only the host portion of MLD (RFC 4605 §4.2): when
// the aggregate of its downstream memberships becomes non-empty it
// joins the group on the upstream interface like any host, and leaves
// when the aggregate drains. Toward its downstream links it is served
// by the node's ordinary MLD router role, whose listener-change events
// the scenario layer feeds to HandleListenerChange exactly as it does
// for a PIM engine. The domain's anchor keeps its full multicast
// routing engine, sees the whole domain as directly-attached listeners,
// and is the only router in the domain the PIM tree knows about — which
// is what makes intra-domain handovers anchor-local: the mobile node's
// re-join terminates at the first proxy (or the anchor) that already
// has the group, never touching the home agent.
//
// Proxy implements engine.MulticastEngine, so checkpointing, crash/
// restart, telemetry and the home-agent service all work unchanged.
package mldproxy

import (
	"fmt"
	"sort"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
)

// EngineName is the registry-style name Proxy reports from Name() and
// stamps into checkpoints.
const EngineName = "mldproxy"

// Config places one proxy in its domain's tree.
type Config struct {
	// Upstream is the link name toward the anchor.
	Upstream string
	// Downstream are the link names this proxy serves (MLD router role
	// active there; aggregated traffic replicated onto members).
	Downstream []string
	// Anchor is the domain anchor's router name (informational: obs and
	// telemetry label handovers with it).
	Anchor string
	// Depth is this proxy's level below the anchor (1 = adjacent).
	Depth int
	// HostMLD configures the upstream host role (report robustness and
	// intervals). ResendOnMove is ignored — proxies do not move.
	HostMLD mld.HostConfig
}

// groupState is the aggregated membership for one group.
type groupState struct {
	ifaces    map[*netem.Interface]bool // downstream interfaces with listeners
	localRefs int                       // node-local (interface-less) refcounts
}

func (g *groupState) aggregate() int {
	n := len(g.ifaces)
	if g.localRefs > 0 {
		n++
	}
	return n
}

// Proxy is the MLD-proxy function on one member router. It implements
// engine.MulticastEngine.
type Proxy struct {
	Node  *netem.Node
	Cfg   Config
	Stats engine.Stats

	host *mld.Host
	up   *netem.Interface
	down map[*netem.Interface]bool

	groups map[ipv6.Addr]*groupState
	// highWater is the maximum simultaneous aggregated group count.
	highWater int

	obs    *obs.Recorder
	closed bool
}

// New installs the proxy function on node: it becomes the node's
// multicast forwarder and runs an MLD host role on the upstream
// interface. The caller (scenario layer) must separately disable the
// node's MLD router role on the upstream interface and route
// listener-change events from the downstream links to
// HandleListenerChange.
func New(node *netem.Node, cfg Config) (*Proxy, error) {
	cfg.HostMLD.ResendOnMove = false
	p := &Proxy{
		Node:   node,
		Cfg:    cfg,
		down:   map[*netem.Interface]bool{},
		groups: map[ipv6.Addr]*groupState{},
	}
	for _, ifc := range node.Ifaces {
		if ifc.Link == nil {
			continue
		}
		switch {
		case ifc.Link.Name == cfg.Upstream:
			p.up = ifc
		default:
			for _, d := range cfg.Downstream {
				if ifc.Link.Name == d {
					p.down[ifc] = true
					break
				}
			}
		}
	}
	if p.up == nil {
		return nil, fmt.Errorf("mldproxy: %s has no interface on upstream link %q", node.Name, cfg.Upstream)
	}
	p.host = mld.NewHost(node, cfg.HostMLD)
	node.Forwarder = p
	return p, nil
}

// Name implements engine.MulticastEngine.
func (p *Proxy) Name() string { return EngineName }

// Host exposes the upstream host role (tests and stats).
func (p *Proxy) Host() *mld.Host { return p.host }

// UpstreamLink returns the configured upstream link name.
func (p *Proxy) UpstreamLink() string { return p.Cfg.Upstream }

// DownstreamLinks returns the served link names, sorted.
func (p *Proxy) DownstreamLinks() []string {
	out := append([]string(nil), p.Cfg.Downstream...)
	sort.Strings(out)
	return out
}

// AggregatedHighWater returns the maximum simultaneous aggregated
// group count observed (telemetry's aggregated-state high-water mark).
func (p *Proxy) AggregatedHighWater() int { return p.highWater }

// Close tears the proxy down for a node crash: upstream memberships are
// abandoned silently (their timers stop; no Done goes out — the crash
// is exactly a host vanishing, and the upstream querier ages the state
// out), and all aggregated state drops. A closed proxy ignores input.
func (p *Proxy) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, g := range p.sortedGroups() {
		if p.groups[g].aggregate() > 0 {
			p.host.LeaveSilently(p.up, g)
		}
	}
	p.groups = map[ipv6.Addr]*groupState{}
}

// AttachRecorder implements engine.MulticastEngine: current aggregated
// groups are emitted as a baseline.
func (p *Proxy) AttachRecorder(rec *obs.Recorder) {
	p.obs = rec
	if rec == nil {
		return
	}
	for _, g := range p.sortedGroups() {
		rec.State(p.Node.Name, p.obsTrack(g), "aggregated", "")
	}
}

func (p *Proxy) obsTrack(group ipv6.Addr) string {
	return "proxy " + group.String()
}

// HandleListenerChange implements engine.MulticastEngine: the MLD
// router role on a downstream link gained its first listener for group,
// or lost its last one.
func (p *Proxy) HandleListenerChange(ifc *netem.Interface, group ipv6.Addr, present bool) {
	if p.closed || !p.down[ifc] {
		return
	}
	if present {
		st := p.ensure(group)
		before := st.aggregate()
		st.ifaces[ifc] = true
		p.onAggregate(group, before, st.aggregate())
	} else if st, ok := p.groups[group]; ok {
		before := st.aggregate()
		delete(st.ifaces, ifc)
		p.onAggregate(group, before, st.aggregate())
	}
}

// AddLocalMember implements engine.MulticastEngine: a node-local
// membership refcount (the home-agent path). It aggregates upward like
// any downstream membership — group traffic then reaches this node,
// where local delivery hands it to the home agent's listeners.
func (p *Proxy) AddLocalMember(group ipv6.Addr) {
	if p.closed {
		return
	}
	st := p.ensure(group)
	before := st.aggregate()
	st.localRefs++
	p.onAggregate(group, before, st.aggregate())
}

// RemoveLocalMember implements engine.MulticastEngine.
func (p *Proxy) RemoveLocalMember(group ipv6.Addr) {
	st, ok := p.groups[group]
	if p.closed || !ok || st.localRefs == 0 {
		return
	}
	before := st.aggregate()
	st.localRefs--
	p.onAggregate(group, before, st.aggregate())
}

// HasLocalMember implements engine.MulticastEngine.
func (p *Proxy) HasLocalMember(group ipv6.Addr) bool {
	st, ok := p.groups[group]
	return ok && st.localRefs > 0
}

func (p *Proxy) ensure(group ipv6.Addr) *groupState {
	st, ok := p.groups[group]
	if !ok {
		st = &groupState{ifaces: map[*netem.Interface]bool{}}
		p.groups[group] = st
	}
	return st
}

// onAggregate reacts to an aggregate-count transition: 0→1 joins the
// group upstream (the proxy's whole subtree now wants it), 1→0 leaves.
func (p *Proxy) onAggregate(group ipv6.Addr, before, after int) {
	switch {
	case before == 0 && after > 0:
		p.Stats.EntriesCreated++
		p.Stats.JoinsSent++ // upstream signaling, for cross-engine overhead columns
		if n := p.active(); n > p.highWater {
			p.highWater = n
		}
		p.host.Join(p.up, group)
		if p.obs != nil {
			p.obs.State(p.Node.Name, p.obsTrack(group), "aggregated", "up="+p.Cfg.Upstream)
		}
	case before > 0 && after == 0:
		p.Stats.PrunesSent++
		p.host.Leave(p.up, group)
		delete(p.groups, group)
		if p.obs != nil {
			p.obs.State(p.Node.Name, p.obsTrack(group), "idle", "")
		}
	}
}

// active counts groups with a non-empty aggregate.
func (p *Proxy) active() int {
	n := 0
	for _, st := range p.groups {
		if st.aggregate() > 0 {
			n++
		}
	}
	return n
}

func (p *Proxy) sortedGroups() []ipv6.Addr {
	out := make([]ipv6.Addr, 0, len(p.groups))
	for g := range p.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ForwardMulticast implements the data plane. Traffic from the
// upstream interface is replicated onto the downstream interfaces with
// members; traffic from a downstream interface is forwarded upstream
// unconditionally (RFC 4605 §4.3 — the tree above may have members
// anywhere) and onto the other member downstream interfaces. The
// replication loop walks Node.Ifaces, never a map, so send order is
// deterministic. Each interface sends the received packet itself
// (Interface.Forward).
func (p *Proxy) ForwardMulticast(rx netem.RxPacket) {
	if p.closed {
		return
	}
	src := rx.Pkt.Hdr.Src
	if src.IsLinkLocalUnicast() || src.IsUnspecified() {
		return
	}
	p.Stats.DataArrived++
	fromUp := rx.Iface == p.up
	if !fromUp && !p.down[rx.Iface] {
		// Not one of ours (a crashed-and-restarted interface set can
		// briefly disagree with the plan); never forward it.
		p.Stats.RPFFailures++
		return
	}
	if rx.HopLimit() <= 1 {
		return
	}
	group := rx.Pkt.Hdr.Dst
	st := p.groups[group]
	if !fromUp {
		if err := p.up.Forward(rx); err == nil {
			p.Stats.DataForwarded++
		}
	}
	for _, ifc := range p.Node.Ifaces {
		if !p.down[ifc] || ifc == rx.Iface {
			continue
		}
		if st == nil || !st.ifaces[ifc] {
			continue
		}
		if err := ifc.Forward(rx); err == nil {
			p.Stats.DataForwarded++
		}
	}
}

// EntryCount implements engine.MulticastEngine: the number of groups
// with aggregated state.
func (p *Proxy) EntryCount() int { return p.active() }

// Entries implements engine.MulticastEngine: one (*,G) entry per
// aggregated group — the unspecified source marks it as aggregate
// state. Upstream carries the upstream link, ForwardingOn the member
// downstream links, both what the proxy-tree invariant checks.
func (p *Proxy) Entries() []engine.SGInfo {
	out := make([]engine.SGInfo, 0, len(p.groups))
	for _, g := range p.sortedGroups() {
		st := p.groups[g]
		if st.aggregate() == 0 {
			continue
		}
		info := engine.SGInfo{Group: g, Upstream: p.Cfg.Upstream}
		for ifc := range st.ifaces {
			if ifc.Link != nil {
				info.ForwardingOn = append(info.ForwardingOn, ifc.Link.Name)
			}
		}
		sort.Strings(info.ForwardingOn)
		out = append(out, info)
	}
	return out
}

// MulticastStats implements engine.MulticastEngine.
func (p *Proxy) MulticastStats() engine.Stats { return p.Stats }

// Checkpoint implements engine.MulticastEngine: the deterministic
// snapshot of aggregated proxy state. The tree position is recorded in
// the Neighbors slot ("up/<link>", "down/<link>"), membership in
// LocalMembers exactly as PIM engines record theirs.
func (p *Proxy) Checkpoint() engine.EngineCheckpoint {
	cp := engine.EngineCheckpoint{
		Engine:  EngineName,
		Node:    p.Node.Name,
		Entries: p.Entries(),
		Stats:   p.Stats,
	}
	cp.Neighbors = append(cp.Neighbors, "up/"+p.Cfg.Upstream)
	for _, d := range p.DownstreamLinks() {
		cp.Neighbors = append(cp.Neighbors, "down/"+d)
	}
	sort.Strings(cp.Neighbors)
	for _, g := range p.sortedGroups() {
		st := p.groups[g]
		if st.localRefs > 0 {
			cp.LocalMembers = append(cp.LocalMembers, fmt.Sprintf("%s@-=%d", g, st.localRefs))
		}
		for ifc := range st.ifaces {
			if ifc.Link != nil {
				cp.LocalMembers = append(cp.LocalMembers, fmt.Sprintf("%s@%s=1", g, ifc.Link.Name))
			}
		}
	}
	sort.Strings(cp.LocalMembers)
	return cp
}
