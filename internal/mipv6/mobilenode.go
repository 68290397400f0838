// Package mipv6 implements the Mobile IPv6 machinery of
// draft-ietf-mobileip-ipv6: the mobile node (movement detection via NDP,
// care-of address acquisition via SLAAC, Binding Updates with
// acknowledgement and retransmission, reverse tunneling) and the home agent
// (binding cache with lifetimes, proxy intercept on the home link,
// bidirectional RFC 2473 tunnel endpoint, and the paper's Multicast Group
// List extension by which a mobile node subscribes to multicast groups
// through its home agent).
package mipv6

import (
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/ndp"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// MNConfig configures a mobile node.
type MNConfig struct {
	// HomePrefix is the /64 of the home link; the home address is formed
	// from it and the node's interface identifier.
	HomePrefix ipv6.Addr
	// HomeAgent is the home agent's global address on the home link.
	HomeAgent ipv6.Addr
	// BindingLifetime requested in Binding Updates. The paper cites the
	// draft's MAX_BINDACK_TIMEOUT = 256 s as the relevant default.
	BindingLifetime time.Duration
	// RetransmitInterval for unacknowledged Binding Updates.
	RetransmitInterval time.Duration
	// DisableProactiveRefresh stops the mobile node's periodic binding
	// refresh, leaving renewal to the home agent's Binding Requests
	// (exists for testing that mechanism; leave false).
	DisableProactiveRefresh bool
}

// DefaultMNConfig returns draft-faithful defaults.
func DefaultMNConfig(homePrefix, homeAgent ipv6.Addr) MNConfig {
	return MNConfig{
		HomePrefix:         homePrefix.Prefix(64),
		HomeAgent:          homeAgent,
		BindingLifetime:    256 * time.Second,
		RetransmitInterval: time.Second,
	}
}

// MoveEvent reports a change of the mobile node's attachment.
type MoveEvent struct {
	AtHome bool
	// CareOf is the current care-of address (zero when at home).
	CareOf ipv6.Addr
	// Registered is false until the home agent acknowledges the binding
	// for this location (events fire both on movement detection and on
	// registration completion).
	Registered bool
}

// MobileNode is the MN protocol machine on a (single-interface) host.
type MobileNode struct {
	Node   *netem.Node
	Iface  *netem.Interface
	Config MNConfig
	// HomeAddress is the node's permanent identity.
	HomeAddress ipv6.Addr

	// OnMove is invoked on movement detection and registration completion.
	OnMove func(MoveEvent)
	// Obs, when non-nil, records the binding-lifecycle state machine
	// (home / away-unregistered / away-registered) and handover instants.
	Obs *obs.Recorder
	// OnDecap observes every tunnel packet the node decapsulates, as
	// received, with its inner packet — metrics use the outer hop limit
	// (outer.HopLimit()) to measure tunnel path stretch.
	OnDecap func(outer netem.RxPacket, inner *ipv6.Packet)
	// GroupList, when non-nil, is included as the Multicast Group List
	// sub-option (paper Figure 5) in every home-registration Binding
	// Update. Core's tunnel-receive approaches set it.
	GroupList []ipv6.Addr

	// Stats.
	BindingUpdatesSent uint64
	BindingAcksHeard   uint64
	MovesDetected      uint64

	ndpHost    *ndp.Host
	homeExt    *ipv6.Ext // see HomeAddressExt
	atHome     bool
	careOf     ipv6.Addr
	seq        uint16
	ackWait    *sim.Timer
	refresh    *sim.Ticker
	registered bool
}

// NewMobileNode installs the MN role on node (which must have exactly one
// interface). iid is the interface identifier used for both home address
// and care-of address formation.
func NewMobileNode(node *netem.Node, iid uint64, cfg MNConfig) *MobileNode {
	mn := &MobileNode{
		Node:        node,
		Iface:       node.Ifaces[0],
		Config:      cfg,
		HomeAddress: cfg.HomePrefix.WithInterfaceID(iid),
		atHome:      true,
	}
	mn.ndpHost = ndp.NewHost(node, iid)
	mn.ndpHost.OnPrefix = mn.onPrefix
	node.HandleProto(ipv6.ProtoIPv6, mn.handleTunnel)
	node.HandleOptions(mn.handleOption)
	s := node.Sched()
	prev := s.PushTag("mip")
	defer s.PopTag(prev)
	mn.ackWait = sim.NewTimer(s, func() { mn.retransmitBinding() })
	mn.refresh = sim.NewTicker(s, cfg.BindingLifetime/2, cfg.BindingLifetime/8, func() {
		if !mn.atHome && !mn.Config.DisableProactiveRefresh {
			mn.sendBindingUpdate()
		}
	})
	return mn
}

// AtHome reports whether the node is attached to its home link.
func (mn *MobileNode) AtHome() bool { return mn.atHome }

// CareOf returns the current care-of address (zero at home).
func (mn *MobileNode) CareOf() ipv6.Addr { return mn.careOf }

// Registered reports whether the current care-of address has been
// acknowledged by the home agent.
func (mn *MobileNode) Registered() bool { return mn.atHome || mn.registered }

// obsBindingTrack is the binding-lifecycle track name.
const obsBindingTrack = "mip binding"

// AttachRecorder starts feeding binding-lifecycle transitions to rec and
// records the node's current attachment state as a baseline.
func (mn *MobileNode) AttachRecorder(rec *obs.Recorder) {
	mn.Obs = rec
	if rec == nil {
		return
	}
	state, detail := "home", ""
	if !mn.atHome {
		state = "away-unregistered"
		if mn.registered {
			state = "away-registered"
		}
		detail = "careof=" + mn.careOf.String()
	}
	rec.State(mn.Node.Name, obsBindingTrack, state, detail)
}

func (mn *MobileNode) onPrefix(ev ndp.PrefixEvent) {
	s := mn.Node.Sched()
	prevTag := s.PushTag("mip")
	defer s.PopTag(prevTag)
	wasHome := mn.atHome
	mn.atHome = ev.Prefix == mn.Config.HomePrefix
	if ev.Moved {
		mn.MovesDetected++
		if mn.Obs != nil {
			mn.Obs.Instant(mn.Node.Name, obsBindingTrack, "move-detected", "prefix="+ev.Prefix.String())
		}
	}
	switch {
	case mn.atHome && !wasHome:
		// Returning home: deregister. The home address is a real on-link
		// address again, not a logical one.
		mn.careOf = ipv6.Addr{}
		mn.registered = false
		if mn.Obs != nil {
			mn.Obs.State(mn.Node.Name, obsBindingTrack, "home", "")
			mn.Obs.Instant(mn.Node.Name, obsBindingTrack, "dereg-sent", "")
		}
		mn.Node.RemoveLogicalAddr(mn.HomeAddress)
		mn.sendDeregistration()
		mn.notify()
	case !mn.atHome:
		mn.careOf = ev.Addr
		mn.registered = false
		if mn.Obs != nil {
			mn.Obs.State(mn.Node.Name, obsBindingTrack, "away-unregistered", "careof="+mn.careOf.String())
		}
		// Accept routing-header deliveries to the home address without
		// claiming it on the foreign link.
		mn.Node.AddLogicalAddr(mn.HomeAddress)
		mn.sendBindingUpdate()
		mn.notify()
	default:
		// At home, first configuration: nothing to register.
		mn.notify()
	}
}

func (mn *MobileNode) notify() {
	if mn.OnMove != nil {
		mn.OnMove(MoveEvent{AtHome: mn.atHome, CareOf: mn.careOf, Registered: mn.Registered()})
	}
}

// SetGroupList updates the Multicast Group List carried in Binding Updates
// and, when away from home, pushes the change to the home agent immediately
// with a fresh extended Binding Update.
func (mn *MobileNode) SetGroupList(groups []ipv6.Addr) {
	// Keep an explicit empty (non-nil) list distinct from "never set":
	// an empty Multicast Group List sub-option clears the home agent's
	// record, whereas omitting the sub-option means "no change".
	mn.GroupList = append([]ipv6.Addr{}, groups...)
	if !mn.atHome {
		mn.sendBindingUpdate()
	}
}

func (mn *MobileNode) buildBU(lifetime time.Duration) (*ipv6.Packet, error) {
	mn.seq++
	bu := &ipv6.BindingUpdate{
		Ack:      true,
		HomeReg:  true,
		Sequence: mn.seq,
		Lifetime: uint32(lifetime / time.Second),
	}
	if mn.GroupList != nil && lifetime > 0 {
		bu.GroupList = mn.GroupList
	}
	buOpt, err := bu.Marshal()
	if err != nil {
		return nil, err
	}
	src := mn.careOf
	if src.IsUnspecified() {
		src = mn.HomeAddress
	}
	return buPacket(src, mn.Config.HomeAgent, buOpt, mn.HomeAddressExt().DestOpts[0]), nil
}

// HomeAddressExt returns the extension header the node's packets from its
// care-of address carry: the draft's Home Address destination option. It
// is built on first use and shared by every such packet after, so it must
// not be changed.
func (mn *MobileNode) HomeAddressExt() *ipv6.Ext {
	if mn.homeExt == nil {
		home := &ipv6.HomeAddressOption{HomeAddress: mn.HomeAddress}
		mn.homeExt = &ipv6.Ext{DestOpts: []ipv6.Option{home.Marshal()}}
	}
	return mn.homeExt
}

// A Mobile IPv6 signalling packet (Binding Update, Ack, Request) carries
// destination options and no upper-layer body. It is allocated together
// with its Ext and its option slice, sized to its options: signal1 for an
// Ack or a Request, signal2 for a Binding Update with the Home Address
// option.
type (
	signal1 struct {
		pkt  ipv6.Packet
		ext  ipv6.Ext
		opts [1]ipv6.Option
	}
	signal2 struct {
		pkt  ipv6.Packet
		ext  ipv6.Ext
		opts [2]ipv6.Option
	}
)

// signalPacket builds a signalling packet with the one option opt.
func signalPacket(src, dst ipv6.Addr, opt ipv6.Option) *ipv6.Packet {
	s := &signal1{opts: [1]ipv6.Option{opt}}
	s.ext.DestOpts = s.opts[:]
	return setSignal(&s.pkt, src, dst, &s.ext)
}

// buPacket builds a Binding Update packet: the option bu, then home.
func buPacket(src, dst ipv6.Addr, bu, home ipv6.Option) *ipv6.Packet {
	s := &signal2{opts: [2]ipv6.Option{bu, home}}
	s.ext.DestOpts = s.opts[:]
	return setSignal(&s.pkt, src, dst, &s.ext)
}

// setSignal fills in p as a signalling packet from src to dst with the
// extension headers ext, and returns it. Its payload is empty, not nil: an
// empty body decodes as an empty payload, so built this way the packet is
// what its frame decodes to, and a link hands its receivers the packet
// itself instead of a decoded copy.
func setSignal(p *ipv6.Packet, src, dst ipv6.Addr, ext *ipv6.Ext) *ipv6.Packet {
	*p = ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: ipv6.DefaultHopLimit},
		Ext:     ext,
		Proto:   ipv6.ProtoNoNext,
		Payload: []byte{},
	}
	return p
}

func (mn *MobileNode) sendBindingUpdate() {
	if mn.atHome || mn.careOf.IsUnspecified() {
		return
	}
	pkt, err := mn.buildBU(mn.Config.BindingLifetime)
	if err != nil {
		return
	}
	_ = mn.Node.Output(pkt)
	mn.BindingUpdatesSent++
	if mn.Obs != nil {
		mn.Obs.Instant(mn.Node.Name, obsBindingTrack, "bu-sent", "")
	}
	mn.ackWait.Reset(mn.Config.RetransmitInterval)
}

func (mn *MobileNode) sendDeregistration() {
	pkt, err := mn.buildBU(0)
	if err != nil {
		return
	}
	_ = mn.Node.Output(pkt)
	mn.BindingUpdatesSent++
	// The deregistration requests an acknowledgement like any other
	// Binding Update: if it is lost, the home agent keeps proxying the
	// home address (and tunneling multicast) until the binding lifetime
	// expires, long after the owner is back on-link. Retransmit until the
	// Binding Ack arrives.
	mn.ackWait.Reset(mn.Config.RetransmitInterval)
}

// retransmitBinding re-sends whichever Binding Update is outstanding: the
// deregistration when the node is back home, the registration otherwise.
func (mn *MobileNode) retransmitBinding() {
	if mn.atHome {
		mn.sendDeregistration()
		return
	}
	mn.sendBindingUpdate()
}

// handleOption processes Binding Acknowledgements and Binding Requests
// addressed to us.
func (mn *MobileNode) handleOption(rx netem.RxPacket, opt ipv6.Option) bool {
	s := mn.Node.Sched()
	prevTag := s.PushTag("mip")
	defer s.PopTag(prevTag)
	if opt.Type == ipv6.OptBindingReq {
		if _, err := ipv6.ParseBindingRequest(opt); err == nil && !mn.atHome {
			mn.sendBindingUpdate()
		}
		return true
	}
	if opt.Type != ipv6.OptBindingAck {
		return false
	}
	ack, err := ipv6.ParseBindingAck(opt)
	if err != nil {
		return true
	}
	mn.BindingAcksHeard++
	if ack.Sequence != mn.seq {
		return true // stale
	}
	mn.ackWait.Stop()
	if ack.Status == ipv6.BindingAckAccepted && !mn.atHome {
		was := mn.registered
		mn.registered = true
		if !was {
			if mn.Obs != nil {
				mn.Obs.Instant(mn.Node.Name, obsBindingTrack, "back-heard", "")
				mn.Obs.State(mn.Node.Name, obsBindingTrack, "away-registered", "careof="+mn.careOf.String())
			}
			mn.notify()
		}
	}
	return true
}

// handleTunnel decapsulates packets the home agent tunneled to the care-of
// address and delivers the inner packet locally (including multicast
// datagrams for groups subscribed via the home agent), with the hop count
// it entered the tunnel with.
func (mn *MobileNode) handleTunnel(rx netem.RxPacket) {
	if rx.Pkt.Hdr.Src != mn.Config.HomeAgent {
		return
	}
	inner, hops, err := ipv6.Decapsulate(rx.Pkt)
	if err != nil {
		return
	}
	if mn.OnDecap != nil {
		mn.OnDecap(rx, inner)
	}
	mn.Node.DeliverLocal(netem.RxPacket{Iface: rx.Iface, Pkt: inner, Hops: hops, ViaTunnel: true})
}

// SendReverseTunneled encapsulates inner (typically a multicast datagram
// with the home address as source) toward the home agent — the paper's
// §4.2.2 approach B for mobile senders.
func (mn *MobileNode) SendReverseTunneled(inner *ipv6.Packet) error {
	src := mn.careOf
	if src.IsUnspecified() {
		// At home: no tunnel needed; send directly.
		return mn.Node.OutputOn(mn.Iface, inner)
	}
	outer, err := ipv6.Encapsulate(src, mn.Config.HomeAgent, ipv6.DefaultHopLimit, inner)
	if err != nil {
		return err
	}
	return mn.Node.Output(outer)
}
