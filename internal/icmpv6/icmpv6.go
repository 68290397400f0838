// Package icmpv6 implements the ICMPv6 messages the system needs: the
// Multicast Listener Discovery messages of RFC 2710 (Query, Report, Done)
// and the Neighbor Discovery router discovery messages of RFC 2461 (Router
// Solicitation, Router Advertisement with Prefix Information options), which
// provide the substrate for stateless address autoconfiguration and Mobile
// IPv6 movement detection.
//
// All messages are real wire codecs carrying a valid RFC 2460 upper-layer
// checksum computed under the IPv6 pseudo-header.
//
// Parse decodes into a value (Msg) and allocates nothing. It is canonical:
// every message it accepts re-marshals to exactly the bytes it came from
// (FuzzICMPv6 checks this). So it rejects what Marshal never writes — a
// reserved field that is not zero, a Packet Too Big echoing more than
// 128 invoking bytes, a checksum of 0xffff (the other encoding of zero) —
// and keeps verbatim the NDP options it does not interpret, which RFC 2461
// §4.6 tells receivers to skip. Every ICMPv6 speaker in the simulator is
// this package, so the strictness rejects nothing the simulator sends.
package icmpv6

import (
	"encoding/binary"
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
)

// ICMPv6 message types used by the system.
const (
	TypePacketTooBig  uint8 = 2
	TypeRouterSolicit uint8 = 133
	TypeRouterAdvert  uint8 = 134
	TypeMLDQuery      uint8 = 130
	TypeMLDReport     uint8 = 131
	TypeMLDDone       uint8 = 132
)

// HeaderLen is the fixed part of every ICMPv6 message: type, code, checksum.
const HeaderLen = 4

// Message is any ICMPv6 message that can render itself to wire format.
type Message interface {
	// Type returns the ICMPv6 type code.
	Type() uint8
	// appendBody appends everything after the 4-byte ICMPv6 header.
	appendBody(b []byte) []byte
}

// Marshal encodes msg with a valid checksum computed under the pseudo-header
// (src, dst).
func Marshal(src, dst ipv6.Addr, msg Message) []byte {
	b := make([]byte, HeaderLen, HeaderLen+32)
	b[0] = msg.Type()
	b = msg.appendBody(b)
	ck := ipv6.Checksum(src, dst, ipv6.ProtoICMPv6, b)
	binary.BigEndian.PutUint16(b[2:4], ck)
	return b
}

// Msg is one parsed ICMPv6 message. It is a value, so parsing allocates
// nothing: Type says which field holds the message, and its byte fields
// (PTB.Invoking, RS.Options, an unknown RA option's Raw) alias the parsed
// bytes, which must stay unchanged while the Msg is in use (link payloads
// are immutable, DESIGN.md §5.1).
type Msg struct {
	Type uint8
	MLD  MLD           // TypeMLDQuery, TypeMLDReport, TypeMLDDone
	RS   RouterSolicit // TypeRouterSolicit
	RA   RouterAdvert  // TypeRouterAdvert
	PTB  PacketTooBig  // TypePacketTooBig
}

// Parse decodes and checksum-verifies an ICMPv6 message received under the
// pseudo-header (src, dst). Unknown types return an error.
func Parse(src, dst ipv6.Addr, b []byte) (Msg, error) {
	var m Msg
	if len(b) < HeaderLen {
		return m, fmt.Errorf("icmpv6: truncated: %d bytes", len(b))
	}
	if !ipv6.VerifyChecksum(src, dst, ipv6.ProtoICMPv6, b) {
		return m, fmt.Errorf("icmpv6: checksum mismatch")
	}
	if binary.BigEndian.Uint16(b[2:4]) == 0xffff {
		// Verifies, but Marshal writes zero for a zero checksum.
		return m, fmt.Errorf("icmpv6: non-canonical checksum 0xffff")
	}
	if b[1] != 0 {
		return m, fmt.Errorf("icmpv6: type %d with code %d", b[0], b[1])
	}
	m.Type = b[0]
	body := b[HeaderLen:]
	var err error
	switch m.Type {
	case TypeMLDQuery, TypeMLDReport, TypeMLDDone:
		err = m.MLD.parse(m.Type, body)
	case TypeRouterSolicit:
		err = m.RS.parse(body)
	case TypeRouterAdvert:
		err = m.RA.parse(body)
	case TypePacketTooBig:
		err = m.PTB.parse(body)
	default:
		err = fmt.Errorf("icmpv6: unsupported type %d", m.Type)
	}
	if err != nil {
		return Msg{}, err
	}
	return m, nil
}

// PacketTooBig is the ICMPv6 error (RFC 2463 §3.2) a router sends when it
// cannot forward a packet because it exceeds the next link's MTU. It
// drives path-MTU discovery: the source learns the bottleneck and
// fragments accordingly — for tunnels, the tunnel entry point does
// (RFC 2473 §6.4).
type PacketTooBig struct {
	// MTU of the constricting link.
	MTU uint32
	// Invoking holds as much of the dropped packet as fits (at least the
	// 40-byte header, so the source can identify the destination).
	Invoking []byte
}

// Type implements Message.
func (PacketTooBig) Type() uint8 { return TypePacketTooBig }

// maxInvoking bounds the echoed portion so the error itself stays small.
const maxInvoking = 128

func (p PacketTooBig) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, p.MTU)
	inv := p.Invoking
	if len(inv) > maxInvoking {
		inv = inv[:maxInvoking]
	}
	return append(b, inv...)
}

func (p *PacketTooBig) parse(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("icmpv6: packet-too-big truncated")
	}
	if len(body)-4 > maxInvoking {
		return fmt.Errorf("icmpv6: packet-too-big echoes %d bytes, more than %d", len(body)-4, maxInvoking)
	}
	p.MTU = binary.BigEndian.Uint32(body[0:4])
	p.Invoking = body[4:]
	return nil
}

// MLD is a Multicast Listener Discovery message (RFC 2710 §3). The Kind
// distinguishes Query (130), Report (131) and Done (132).
//
// Wire layout after the ICMPv6 header: Maximum Response Delay (2 bytes,
// milliseconds; meaningful only in Queries), Reserved (2), Multicast
// Address (16).
type MLD struct {
	Kind uint8
	// MaxResponseDelay is the longest a listener may wait before reporting.
	// Only Queries carry a non-zero value.
	MaxResponseDelay time.Duration
	// MulticastAddress is the group being queried/reported/left. The
	// unspecified address in a Query makes it a General Query.
	MulticastAddress ipv6.Addr
}

// Type implements Message.
func (m MLD) Type() uint8 { return m.Kind }

func (m MLD) appendBody(b []byte) []byte {
	ms := m.MaxResponseDelay.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 0xffff {
		ms = 0xffff
	}
	b = binary.BigEndian.AppendUint16(b, uint16(ms))
	b = append(b, 0, 0)
	return append(b, m.MulticastAddress[:]...)
}

// IsGeneralQuery reports whether m is a General Query (a Query for the
// unspecified address, soliciting reports for all groups).
func (m MLD) IsGeneralQuery() bool {
	return m.Kind == TypeMLDQuery && m.MulticastAddress.IsUnspecified()
}

func (m *MLD) parse(kind uint8, body []byte) error {
	if len(body) != 20 {
		return fmt.Errorf("icmpv6: MLD body is %d bytes, want 20", len(body))
	}
	if body[2]|body[3] != 0 {
		return fmt.Errorf("icmpv6: MLD reserved field set")
	}
	m.Kind = kind
	m.MaxResponseDelay = time.Duration(binary.BigEndian.Uint16(body[0:2])) * time.Millisecond
	copy(m.MulticastAddress[:], body[4:20])
	if kind != TypeMLDQuery && m.MulticastAddress.IsUnspecified() {
		return fmt.Errorf("icmpv6: MLD %d for unspecified address", kind)
	}
	if !m.MulticastAddress.IsUnspecified() && !m.MulticastAddress.IsMulticast() {
		return fmt.Errorf("icmpv6: MLD address %s is not multicast", m.MulticastAddress)
	}
	return nil
}

// RouterSolicit is an NDP Router Solicitation (RFC 2461 §4.1). Hosts send it
// on attaching to a link to trigger an immediate Router Advertisement — this
// is how a mobile node learns its new prefix quickly after movement.
type RouterSolicit struct {
	// Options are the solicitation's NDP options, verbatim; the simulator
	// interprets none of them.
	Options []byte
}

// Type implements Message.
func (RouterSolicit) Type() uint8 { return TypeRouterSolicit }

func (r RouterSolicit) appendBody(b []byte) []byte {
	b = append(b, 0, 0, 0, 0) // reserved
	return append(b, r.Options...)
}

func (r *RouterSolicit) parse(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("icmpv6: router solicitation truncated")
	}
	if binary.BigEndian.Uint32(body[0:4]) != 0 {
		return fmt.Errorf("icmpv6: router solicitation reserved field set")
	}
	if len(body) > 4 {
		r.Options = body[4:]
	}
	return nil
}

// PrefixInfo is the NDP Prefix Information option (RFC 2461 §4.6.2) carried
// in Router Advertisements; hosts use on-link /64 prefixes with the A flag
// for stateless address autoconfiguration (RFC 2462).
type PrefixInfo struct {
	PrefixLen         uint8
	OnLink            bool // L flag
	Autonomous        bool // A flag: usable for SLAAC
	ValidLifetime     time.Duration
	PreferredLifetime time.Duration
	Prefix            ipv6.Addr
}

// RAOption is one NDP option of a Router Advertisement. A Prefix
// Information option is decoded into Prefix and has a nil Raw. Any other
// option is one the simulator does not interpret (RFC 2461 §4.6: receivers
// skip it); Raw keeps it whole, type and length octets included, so a
// parsed advertisement re-marshals to its own bytes.
type RAOption struct {
	Prefix PrefixInfo
	Raw    []byte
}

// MaxRAOptions is how many NDP options a RouterAdvert holds. They are
// stored inline, so parsing one allocates nothing; Parse rejects an
// advertisement that carries more rather than drop any.
const MaxRAOptions = 4

// RouterAdvert is an NDP Router Advertisement (RFC 2461 §4.2).
type RouterAdvert struct {
	CurHopLimit    uint8
	Managed, Other bool // M and O flags
	RouterLifetime time.Duration
	// ReachableTime and RetransTimer are zero when unspecified; the
	// simulator's routers leave both so.
	ReachableTime, RetransTimer time.Duration

	opts  [MaxRAOptions]RAOption
	nopts int
}

// Type implements Message.
func (RouterAdvert) Type() uint8 { return TypeRouterAdvert }

// Options returns the advertisement's NDP options in wire order. The slice
// shares r's inline storage.
func (r *RouterAdvert) Options() []RAOption { return r.opts[:r.nopts] }

// AddPrefix appends a Prefix Information option. It reports false, adding
// nothing, when r already holds MaxRAOptions options.
func (r *RouterAdvert) AddPrefix(p PrefixInfo) bool {
	if r.nopts == MaxRAOptions {
		return false
	}
	r.opts[r.nopts] = RAOption{Prefix: p}
	r.nopts++
	return true
}

const optPrefixInfo = 3

func (r RouterAdvert) appendBody(b []byte) []byte {
	var flags byte
	if r.Managed {
		flags |= 0x80
	}
	if r.Other {
		flags |= 0x40
	}
	secs := r.RouterLifetime / time.Second
	if secs > 0xffff {
		secs = 0xffff
	}
	b = append(b, r.CurHopLimit, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(secs))
	b = binary.BigEndian.AppendUint32(b, clampUnits(r.ReachableTime, time.Millisecond))
	b = binary.BigEndian.AppendUint32(b, clampUnits(r.RetransTimer, time.Millisecond))
	for _, o := range r.Options() {
		if o.Raw != nil {
			b = append(b, o.Raw...)
			continue
		}
		p := o.Prefix
		flags = 0
		if p.OnLink {
			flags |= 0x80
		}
		if p.Autonomous {
			flags |= 0x40
		}
		b = append(b, optPrefixInfo, 4, p.PrefixLen, flags) // length in 8-octet units
		b = binary.BigEndian.AppendUint32(b, clampUnits(p.ValidLifetime, time.Second))
		b = binary.BigEndian.AppendUint32(b, clampUnits(p.PreferredLifetime, time.Second))
		b = append(b, 0, 0, 0, 0) // reserved
		b = append(b, p.Prefix[:]...)
	}
	return b
}

// clampUnits expresses d in whole units, clamped to a 32-bit field.
func clampUnits(d, unit time.Duration) uint32 {
	s := d / unit
	if s < 0 {
		return 0
	}
	if s > 0xffffffff {
		return 0xffffffff
	}
	return uint32(s)
}

func (r *RouterAdvert) parse(body []byte) error {
	if len(body) < 12 {
		return fmt.Errorf("icmpv6: router advertisement truncated")
	}
	if body[1]&0x3f != 0 {
		return fmt.Errorf("icmpv6: router advertisement reserved flags set")
	}
	r.CurHopLimit = body[0]
	r.Managed = body[1]&0x80 != 0
	r.Other = body[1]&0x40 != 0
	r.RouterLifetime = time.Duration(binary.BigEndian.Uint16(body[2:4])) * time.Second
	r.ReachableTime = time.Duration(binary.BigEndian.Uint32(body[4:8])) * time.Millisecond
	r.RetransTimer = time.Duration(binary.BigEndian.Uint32(body[8:12])) * time.Millisecond
	opts := body[12:]
	for len(opts) > 0 {
		if len(opts) < 2 || opts[1] == 0 {
			return fmt.Errorf("icmpv6: malformed NDP option")
		}
		l := int(opts[1]) * 8
		if len(opts) < l {
			return fmt.Errorf("icmpv6: NDP option overruns message")
		}
		if r.nopts == MaxRAOptions {
			return fmt.Errorf("icmpv6: router advertisement carries more than %d options", MaxRAOptions)
		}
		o := &r.opts[r.nopts]
		if opts[0] == optPrefixInfo {
			if err := o.Prefix.parse(opts[:l]); err != nil {
				return err
			}
		} else {
			o.Raw = opts[:l]
		}
		r.nopts++
		opts = opts[l:]
	}
	return nil
}

// parse decodes a whole Prefix Information option.
func (p *PrefixInfo) parse(opt []byte) error {
	if len(opt) != 32 {
		return fmt.Errorf("icmpv6: prefix info option is %d bytes, want 32", len(opt))
	}
	if opt[3]&0x3f != 0 || binary.BigEndian.Uint32(opt[12:16]) != 0 {
		return fmt.Errorf("icmpv6: prefix info reserved field set")
	}
	if opt[2] > 128 {
		return fmt.Errorf("icmpv6: prefix length %d", opt[2])
	}
	p.PrefixLen = opt[2]
	p.OnLink = opt[3]&0x80 != 0
	p.Autonomous = opt[3]&0x40 != 0
	p.ValidLifetime = time.Duration(binary.BigEndian.Uint32(opt[4:8])) * time.Second
	p.PreferredLifetime = time.Duration(binary.BigEndian.Uint32(opt[8:12])) * time.Second
	copy(p.Prefix[:], opt[16:32])
	return nil
}
