package mipv6

import (
	"encoding/binary"
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// Home agent redundancy — the extension the paper's conclusion points to
// (its reference [10], "Home agent redundancy and load balancing in Mobile
// IPv6"). A ClusterMember wraps a HomeAgent on the home link:
//
//   - members advertise themselves with link-scope heartbeats carrying a
//     priority;
//   - the highest-priority live member is ACTIVE: it owns the cluster's
//     shared service address (which mobile nodes use as their home-agent
//     address), serves registrations and tunnels traffic;
//   - the active member replicates every binding-cache change to the
//     standbys over the same link-scope channel;
//   - when heartbeats from the active stop, the best standby promotes
//     itself: it configures the service address, imports the replicated
//     bindings (re-installing proxy intercept for every mobile node), and
//     service continues without any action from the mobile nodes.
//
// The sync channel is a link-scope multicast group with a small binary
// format (documented below); it never leaves the home link.

// ClusterConfig tunes the redundancy protocol.
type ClusterConfig struct {
	// ServiceAddr is the shared home-agent address mobile nodes register
	// with; only the active member configures it.
	ServiceAddr ipv6.Addr
	// SyncGroup is the link-scope multicast group for heartbeats and
	// binding replication.
	SyncGroup ipv6.Addr
	// SyncPort is the UDP port of the sync channel.
	SyncPort uint16
	// HeartbeatInterval between alive announcements.
	HeartbeatInterval time.Duration
	// FailoverAfter is how long a peer may be silent before it is
	// considered dead (≥ 2 × HeartbeatInterval to tolerate jitter).
	FailoverAfter time.Duration
}

// DefaultClusterConfig returns a one-second heartbeat cluster on the given
// service address.
func DefaultClusterConfig(serviceAddr ipv6.Addr) ClusterConfig {
	return ClusterConfig{
		ServiceAddr:       serviceAddr,
		SyncGroup:         ipv6.MustParseAddr("ff02::6a"),
		SyncPort:          3740,
		HeartbeatInterval: time.Second,
		FailoverAfter:     3500 * time.Millisecond,
	}
}

// shadowBinding is a replicated (not yet served) binding on a standby.
type shadowBinding struct {
	careOf   ipv6.Addr
	seq      uint16
	groups   []ipv6.Addr
	deadline sim.Time // absolute expiry of the replicated lifetime
}

// ClusterMember is one home agent participating in a redundancy cluster.
type ClusterMember struct {
	HA       *HomeAgent
	Config   ClusterConfig
	Priority uint16

	// Stats.
	Promotions uint64
	Demotions  uint64
	SyncsSent  uint64
	SyncsHeard uint64

	active  bool
	started bool
	peers   map[ipv6.Addr]*peerState // keyed by sender link-local
	shadow  map[ipv6.Addr]*shadowBinding
	ticker  *sim.Ticker
}

type peerState struct {
	priority uint16
	expiry   *sim.Timer
}

// NewClusterMember joins ha to the cluster. The home agent must have been
// created with Address == cfg.ServiceAddr; the member manages whether that
// address is actually configured on the interface.
func NewClusterMember(ha *HomeAgent, cfg ClusterConfig, priority uint16) *ClusterMember {
	m := &ClusterMember{
		HA:       ha,
		Config:   cfg,
		Priority: priority,
		peers:    map[ipv6.Addr]*peerState{},
		shadow:   map[ipv6.Addr]*shadowBinding{},
	}
	if ha.Address != cfg.ServiceAddr {
		panic(fmt.Sprintf("mipv6: cluster member HA address %s != service address %s", ha.Address, cfg.ServiceAddr))
	}
	// The service address starts unconfigured; election decides the owner.
	ha.HomeIface.RemoveAddr(cfg.ServiceAddr)
	ha.HomeIface.JoinGroup(cfg.SyncGroup)
	ha.Node.BindUDP(cfg.SyncPort, m.handleSync)
	ha.AddBindingListener(m.replicate)

	s := ha.Node.Sched()
	m.ticker = sim.NewTicker(s, cfg.HeartbeatInterval, cfg.HeartbeatInterval/10, m.tick)
	// Listen for existing members before the first election evaluation.
	s.Schedule(cfg.FailoverAfter, func() { m.started = true; m.evaluate() })
	m.sendHeartbeat()
	return m
}

// Active reports whether this member currently serves the cluster address.
func (m *ClusterMember) Active() bool { return m.active }

// ShadowCount reports how many replicated bindings a standby holds.
func (m *ClusterMember) ShadowCount() int { return len(m.shadow) }

func (m *ClusterMember) tick() {
	if !m.HA.HomeIface.Up() {
		return // crashed; say nothing
	}
	m.sendHeartbeat()
	m.evaluate()
}

func (m *ClusterMember) evaluate() {
	if !m.started || !m.HA.HomeIface.Up() {
		return
	}
	best := true
	for _, p := range m.peers {
		if p.priority > m.Priority {
			best = false
			break
		}
	}
	switch {
	case best && !m.active:
		m.promote()
	case !best && m.active:
		m.demote()
	}
}

func (m *ClusterMember) promote() {
	m.active = true
	m.Promotions++
	m.HA.HomeIface.AddAddr(m.Config.ServiceAddr)
	// Serve the replicated bindings: import with remaining lifetime.
	now := m.HA.Node.Sched().Now()
	for home, sb := range m.shadow {
		remaining := sb.deadline.Sub(now)
		if remaining <= 0 {
			delete(m.shadow, home)
			continue
		}
		m.HA.ImportBinding(home, sb.careOf, sb.seq, sb.groups, remaining)
	}
}

func (m *ClusterMember) demote() {
	m.active = false
	m.Demotions++
	m.HA.HomeIface.RemoveAddr(m.Config.ServiceAddr)
	// Withdraw served bindings (the new active has the replicas); keep
	// them as shadows.
	for _, b := range m.HA.Bindings() {
		m.shadowStore(b.Home, b.CareOf, b.Seq, b.Groups, b.expiry.Expiry())
		m.HA.removeBinding(b.Home)
	}
}

// Fail simulates a crash of this member's node: the home interface goes
// down (heartbeats stop, the service address disappears from the link).
func (m *ClusterMember) Fail() {
	m.HA.HomeIface.SetUp(false)
}

// Recover brings a failed member back. It rejoins as a standby and the
// election decides ownership.
func (m *ClusterMember) Recover() {
	m.HA.HomeIface.SetUp(true)
	if m.active {
		// Our in-memory state predates the crash; rejoin humbly.
		m.demote()
		m.Demotions-- // administrative, not an election demotion
	}
	m.started = false
	m.HA.Node.Sched().Schedule(m.Config.FailoverAfter, func() { m.started = true; m.evaluate() })
	m.sendHeartbeat()
}

// --- sync channel wire format -------------------------------------------------
//
//	magic "HAS1" (4)  type (1: 1=heartbeat, 2=binding, 3=remove)
//	service address (16) — the cluster instance the message belongs to,
//	so several address-clusters (load balancing) can share one link.
//	heartbeat: priority (2)
//	binding:   home (16) coa (16) seq (2) lifetime-seconds (4)
//	           count (1) count×group (16 each)
//	remove:    home (16)

var syncMagic = [4]byte{'H', 'A', 'S', '1'}

const (
	syncHeartbeat = 1
	syncBinding   = 2
	syncRemove    = 3
)

func (m *ClusterMember) sendSync(payload []byte) {
	ifc := m.HA.HomeIface
	if !ifc.Up() {
		return
	}
	src := ifc.LinkLocal()
	u := &ipv6.UDP{SrcPort: m.Config.SyncPort, DstPort: m.Config.SyncPort, Payload: payload}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: m.Config.SyncGroup, HopLimit: 1},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, m.Config.SyncGroup),
	}
	_ = m.HA.Node.OutputOn(ifc, pkt)
	m.SyncsSent++
}

func (m *ClusterMember) syncHeader(kind byte) []byte {
	b := make([]byte, 0, 32)
	b = append(b, syncMagic[:]...)
	b = append(b, kind)
	b = append(b, m.Config.ServiceAddr[:]...)
	return b
}

func (m *ClusterMember) sendHeartbeat() {
	b := m.syncHeader(syncHeartbeat)
	var w [2]byte
	binary.BigEndian.PutUint16(w[:], m.Priority)
	m.sendSync(append(b, w[:]...))
}

// replicate mirrors binding-cache changes to the standbys.
func (m *ClusterMember) replicate(ev BindingEvent) {
	if !m.active {
		return // standbys don't replicate (their cache changes on import)
	}
	if !ev.Present {
		b := m.syncHeader(syncRemove)
		b = append(b, ev.Home[:]...)
		m.sendSync(b)
		return
	}
	bnd, ok := m.HA.BindingFor(ev.Home)
	if !ok {
		return
	}
	lifetime := bnd.expiry.Remaining()
	b := m.syncHeader(syncBinding)
	b = append(b, ev.Home[:]...)
	b = append(b, ev.CareOf[:]...)
	var w [6]byte
	binary.BigEndian.PutUint16(w[0:2], bnd.Seq)
	binary.BigEndian.PutUint32(w[2:6], uint32(lifetime/time.Second))
	b = append(b, w[:]...)
	if len(ev.Groups) > 255 {
		return
	}
	b = append(b, byte(len(ev.Groups)))
	for _, g := range ev.Groups {
		b = append(b, g[:]...)
	}
	m.sendSync(b)
}

func (m *ClusterMember) handleSync(rx netem.RxPacket, u ipv6.UDP) {
	p := u.Payload
	if len(p) < 21 || [4]byte(p[0:4]) != syncMagic {
		return
	}
	if rx.Pkt.Hdr.Src == m.HA.HomeIface.LinkLocal() {
		return // our own (should not happen: links don't loop back)
	}
	var svc ipv6.Addr
	copy(svc[:], p[5:21])
	if svc != m.Config.ServiceAddr {
		return // another address-cluster sharing the link
	}
	m.SyncsHeard++
	body := p[21:]
	switch p[4] {
	case syncHeartbeat:
		if len(body) < 2 {
			return
		}
		m.onHeartbeat(rx.Pkt.Hdr.Src, binary.BigEndian.Uint16(body[0:2]))
	case syncBinding:
		m.onSyncBinding(body)
	case syncRemove:
		if len(body) < 16 {
			return
		}
		var home ipv6.Addr
		copy(home[:], body[0:16])
		delete(m.shadow, home)
		if m.active {
			// Shouldn't happen (two actives); heal by dropping too.
			m.HA.removeBinding(home)
		}
	}
}

func (m *ClusterMember) onHeartbeat(src ipv6.Addr, priority uint16) {
	p, ok := m.peers[src]
	if !ok {
		p = &peerState{}
		addr := src
		p.expiry = sim.NewTimer(m.HA.Node.Sched(), func() {
			delete(m.peers, addr)
			m.evaluate()
		})
		m.peers[src] = p
	}
	p.priority = priority
	p.expiry.Reset(m.Config.FailoverAfter)
	m.evaluate()
}

func (m *ClusterMember) onSyncBinding(p []byte) {
	if len(p) < 16+16+6+1 {
		return
	}
	var home, coa ipv6.Addr
	copy(home[:], p[0:16])
	copy(coa[:], p[16:32])
	seq := binary.BigEndian.Uint16(p[32:34])
	lifetime := time.Duration(binary.BigEndian.Uint32(p[34:38])) * time.Second
	n := int(p[38])
	if len(p) < 39+16*n {
		return
	}
	groups := make([]ipv6.Addr, n)
	for i := 0; i < n; i++ {
		copy(groups[i][:], p[39+16*i:39+16*(i+1)])
	}
	m.shadowStore(home, coa, seq, groups, m.HA.Node.Sched().Now().Add(lifetime))
}

func (m *ClusterMember) shadowStore(home, coa ipv6.Addr, seq uint16, groups []ipv6.Addr, deadline sim.Time) {
	m.shadow[home] = &shadowBinding{
		careOf:   coa,
		seq:      seq,
		groups:   append([]ipv6.Addr(nil), groups...),
		deadline: deadline,
	}
}
