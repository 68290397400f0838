// Package pimdm implements Protocol Independent Multicast — Dense Mode,
// version 2, per draft-ietf-pim-v2-dm (the specification the paper builds
// on): Hello-based neighbor discovery, data-driven flood-and-prune state,
// LAN prune delay with Join overrides, Graft/Graft-Ack with retransmission,
// Assert-based forwarder election, and the (S,G) data timeout whose 210 s
// default the paper repeatedly cites.
//
// This file holds the wire codecs. PIM messages ride directly over IPv6
// (protocol 103) with the standard pseudo-header checksum.
package pimdm

import (
	"encoding/binary"
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
)

// PIM message types (PIMv2 header).
const (
	TypeHello     uint8 = 0
	TypeJoinPrune uint8 = 3
	TypeAssert    uint8 = 5
	TypeGraft     uint8 = 6
	TypeGraftAck  uint8 = 7
)

// HPIM-DM declaration types (internal/hpimdm). The hard-state engine
// shares the PIMv2 header, checksum and encoded-address formats, so its
// messages live in this codec; type codes sit in the space PIMv2 leaves
// unassigned for dense mode (10–12).
const (
	TypeInterest   uint8 = 10 // reliable "I want (S,G)" toward upstream
	TypeNoInterest uint8 = 11 // reliable "stop sending (S,G)"
	TypeDeclAck    uint8 = 12 // acknowledges a declaration by sequence
)

const pimVersion = 2

// Message is any PIM message Marshal encodes: *Hello, *JoinPrune,
// *Assert, *StateRefresh or *Declaration.
type Message interface {
	// PIMType returns the 4-bit message type.
	PIMType() uint8
	// appendBody appends everything after the 4-byte PIM header.
	appendBody(b []byte) []byte
}

// headerLen is the PIMv2 common header: version and type, reserved,
// checksum.
const headerLen = 4

// Body lengths of the fixed-size messages.
const (
	assertLen       = encodedGroupLen + encodedUnicastLen + 8
	stateRefreshLen = encodedGroupLen + 2*encodedUnicastLen + 12
	declarationLen  = encodedUnicastLen + 4 + encodedGroupLen + encodedSourceLen
)

// Marshal encodes msg with the PIMv2 common header and a valid checksum
// under the (src, dst) pseudo-header. It sizes the message first and
// encodes header and body into one buffer, so a message costs one
// allocation. It dispatches on the concrete type rather than through
// Message's methods: a call through the interface would move every
// message a sender builds to the heap.
func Marshal(src, dst ipv6.Addr, msg Message) ([]byte, error) {
	var b []byte
	switch m := msg.(type) {
	case *Hello:
		b = m.appendBody(header(m.PIMType(), m.bodyLen()))
	case *JoinPrune:
		n, err := m.bodyLen()
		if err != nil {
			return nil, err
		}
		b = m.appendBody(header(m.PIMType(), n))
	case *Assert:
		b = m.appendBody(header(m.PIMType(), assertLen))
	case *StateRefresh:
		b = m.appendBody(header(m.PIMType(), stateRefreshLen))
	case *Declaration:
		b = m.appendBody(header(m.PIMType(), declarationLen))
	default:
		return nil, fmt.Errorf("pimdm: no message to marshal")
	}
	ck := ipv6.Checksum(src, dst, ipv6.ProtoPIM, b)
	binary.BigEndian.PutUint16(b[2:4], ck)
	return b, nil
}

// header starts a message of type typ whose body is n bytes long: the
// common header with a zero checksum, in a buffer that holds the body.
func header(typ uint8, n int) []byte {
	b := make([]byte, headerLen, headerLen+n)
	b[0] = pimVersion<<4 | typ
	return b
}

// Msg is one parsed PIM message. It is a value, so parsing allocates
// nothing but a Join/Prune's group and source lists: Type says which field
// holds the message.
type Msg struct {
	Type         uint8
	Hello        Hello        // TypeHello
	JoinPrune    JoinPrune    // TypeJoinPrune, TypeGraft, TypeGraftAck
	Assert       Assert       // TypeAssert
	StateRefresh StateRefresh // TypeStateRefresh
	Decl         Declaration  // TypeInterest, TypeNoInterest, TypeDeclAck
}

// Parse decodes and verifies a PIM message.
func Parse(src, dst ipv6.Addr, b []byte) (Msg, error) {
	var m Msg
	if len(b) < headerLen {
		return m, fmt.Errorf("pimdm: message truncated: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != pimVersion {
		return m, fmt.Errorf("pimdm: version %d, want %d", v, pimVersion)
	}
	if !ipv6.VerifyChecksum(src, dst, ipv6.ProtoPIM, b) {
		return m, fmt.Errorf("pimdm: checksum mismatch")
	}
	m.Type = b[0] & 0x0f
	body := b[headerLen:]
	var err error
	switch m.Type {
	case TypeHello:
		err = m.Hello.parse(body)
	case TypeJoinPrune, TypeGraft, TypeGraftAck:
		err = m.JoinPrune.parse(m.Type, body)
	case TypeAssert:
		err = m.Assert.parse(body)
	case TypeStateRefresh:
		err = m.StateRefresh.parse(body)
	case TypeInterest, TypeNoInterest, TypeDeclAck:
		err = m.Decl.parse(m.Type, body)
	default:
		err = fmt.Errorf("pimdm: unsupported type %d", m.Type)
	}
	if err != nil {
		return Msg{}, err
	}
	return m, nil
}

// Encoded address formats (PIMv2 §4.1), IPv6 family = 2, native encoding.
const addrFamilyIPv6 = 2

// Encoded address lengths: family and encoding type, then for a group or
// source a reserved or flags byte and the mask length, then the address.
const (
	encodedUnicastLen = 2 + 16
	encodedGroupLen   = 4 + 16
	encodedSourceLen  = 4 + 16
)

func putEncodedUnicast(b []byte, a ipv6.Addr) []byte {
	b = append(b, addrFamilyIPv6, 0)
	return append(b, a[:]...)
}

func getEncodedUnicast(b []byte) (ipv6.Addr, []byte, error) {
	var a ipv6.Addr
	if len(b) < encodedUnicastLen {
		return a, nil, fmt.Errorf("pimdm: encoded unicast truncated")
	}
	if b[0] != addrFamilyIPv6 || b[1] != 0 {
		return a, nil, fmt.Errorf("pimdm: encoded unicast family/encoding %d/%d", b[0], b[1])
	}
	copy(a[:], b[2:18])
	return a, b[18:], nil
}

func putEncodedGroup(b []byte, g ipv6.Addr) []byte {
	b = append(b, addrFamilyIPv6, 0, 0, 128)
	return append(b, g[:]...)
}

func getEncodedGroup(b []byte) (ipv6.Addr, []byte, error) {
	var g ipv6.Addr
	if len(b) < encodedGroupLen {
		return g, nil, fmt.Errorf("pimdm: encoded group truncated")
	}
	if b[0] != addrFamilyIPv6 || b[1] != 0 {
		return g, nil, fmt.Errorf("pimdm: encoded group family/encoding %d/%d", b[0], b[1])
	}
	if b[3] != 128 {
		return g, nil, fmt.Errorf("pimdm: group mask length %d, want 128", b[3])
	}
	copy(g[:], b[4:20])
	if !g.IsMulticast() {
		return g, nil, fmt.Errorf("pimdm: encoded group %s not multicast", g)
	}
	return g, b[20:], nil
}

func putEncodedSource(b []byte, s ipv6.Addr) []byte {
	// Flags: sparse/wildcard/RPT bits all zero in dense mode.
	b = append(b, addrFamilyIPv6, 0, 0, 128)
	return append(b, s[:]...)
}

func getEncodedSource(b []byte) (ipv6.Addr, []byte, error) {
	var s ipv6.Addr
	if len(b) < encodedSourceLen {
		return s, nil, fmt.Errorf("pimdm: encoded source truncated")
	}
	if b[0] != addrFamilyIPv6 || b[1] != 0 {
		return s, nil, fmt.Errorf("pimdm: encoded source family/encoding %d/%d", b[0], b[1])
	}
	if b[3] != 128 {
		return s, nil, fmt.Errorf("pimdm: source mask length %d, want 128", b[3])
	}
	copy(s[:], b[4:20])
	return s, b[20:], nil
}

// Hello is the PIM neighbor-discovery message (§4.3). Option 1 carries the
// holdtime; option 20 (Generation ID) is emitted only when GenID is
// non-zero, so engines that don't use it (classic PIM-DM) keep their
// Hello bytes — and the golden traces pinned to them — unchanged.
type Hello struct {
	Holdtime time.Duration // 0xffff = never timeout; 0 = goodbye
	// GenID is the sender's randomly chosen generation identifier. A
	// change signals the neighbor restarted and lost all state (hard-state
	// engines re-sync their declarations on it). Zero = option absent.
	GenID uint32
}

// PIMType implements Message.
func (*Hello) PIMType() uint8 { return TypeHello }

func (h *Hello) bodyLen() int {
	if h.GenID != 0 {
		return 6 + 8
	}
	return 6
}

func (h *Hello) appendBody(b []byte) []byte {
	secs := h.Holdtime / time.Second
	if secs > 0xffff {
		secs = 0xffff
	}
	b = binary.BigEndian.AppendUint16(b, 1) // option type 1: holdtime
	b = binary.BigEndian.AppendUint16(b, 2) // length
	b = binary.BigEndian.AppendUint16(b, uint16(secs))
	if h.GenID != 0 {
		b = binary.BigEndian.AppendUint16(b, 20) // option type 20: generation ID
		b = binary.BigEndian.AppendUint16(b, 4)  // length
		b = binary.BigEndian.AppendUint32(b, h.GenID)
	}
	return b
}

func (h *Hello) parse(b []byte) error {
	for len(b) > 0 {
		if len(b) < 4 {
			return fmt.Errorf("pimdm: hello option truncated")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		l := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+l {
			return fmt.Errorf("pimdm: hello option overruns")
		}
		switch typ {
		case 1:
			if l != 2 {
				return fmt.Errorf("pimdm: holdtime option length %d", l)
			}
			h.Holdtime = time.Duration(binary.BigEndian.Uint16(b[4:6])) * time.Second
		case 20:
			if l != 4 {
				return fmt.Errorf("pimdm: generation ID option length %d", l)
			}
			h.GenID = binary.BigEndian.Uint32(b[4:8])
		}
		b = b[4+l:]
	}
	return nil
}

// JoinPrune carries joined and pruned sources per group (§4.5). The same
// layout serves Graft (type 6: "join" list = grafted sources) and Graft-Ack
// (type 7: echoed back).
type JoinPrune struct {
	Kind uint8 // TypeJoinPrune, TypeGraft or TypeGraftAck
	// UpstreamNeighbor is the router being addressed (messages are
	// multicast on the LAN so others can overhear prunes and send
	// overriding joins).
	UpstreamNeighbor ipv6.Addr
	Holdtime         time.Duration
	Groups           []JoinPruneGroup
}

// JoinPruneGroup is one group's join/prune lists.
type JoinPruneGroup struct {
	Group  ipv6.Addr
	Joins  []ipv6.Addr // source addresses
	Prunes []ipv6.Addr
}

// PIMType implements Message.
func (j *JoinPrune) PIMType() uint8 { return j.Kind }

// bodyLen sizes the message, and rejects one whose counts overflow their
// fields.
func (j *JoinPrune) bodyLen() (int, error) {
	if len(j.Groups) > 255 {
		return 0, fmt.Errorf("pimdm: %d groups exceed count field", len(j.Groups))
	}
	n := encodedUnicastLen + 4
	for _, g := range j.Groups {
		if len(g.Joins) > 0xffff || len(g.Prunes) > 0xffff {
			return 0, fmt.Errorf("pimdm: source list too long")
		}
		n += encodedGroupLen + 4 + encodedSourceLen*(len(g.Joins)+len(g.Prunes))
	}
	return n, nil
}

func (j *JoinPrune) appendBody(b []byte) []byte {
	b = putEncodedUnicast(b, j.UpstreamNeighbor)
	secs := j.Holdtime / time.Second
	if secs > 0xffff {
		secs = 0xffff
	}
	b = append(b, 0, byte(len(j.Groups)))
	b = binary.BigEndian.AppendUint16(b, uint16(secs))
	for _, g := range j.Groups {
		b = putEncodedGroup(b, g.Group)
		b = binary.BigEndian.AppendUint16(b, uint16(len(g.Joins)))
		b = binary.BigEndian.AppendUint16(b, uint16(len(g.Prunes)))
		for _, s := range g.Joins {
			b = putEncodedSource(b, s)
		}
		for _, s := range g.Prunes {
			b = putEncodedSource(b, s)
		}
	}
	return b
}

func (j *JoinPrune) parse(kind uint8, b []byte) error {
	j.Kind = kind
	var err error
	j.UpstreamNeighbor, b, err = getEncodedUnicast(b)
	if err != nil {
		return err
	}
	if len(b) < 4 {
		return fmt.Errorf("pimdm: join/prune truncated")
	}
	numGroups := int(b[1])
	j.Holdtime = time.Duration(binary.BigEndian.Uint16(b[2:4])) * time.Second
	b = b[4:]
	for i := 0; i < numGroups; i++ {
		var g JoinPruneGroup
		g.Group, b, err = getEncodedGroup(b)
		if err != nil {
			return err
		}
		if len(b) < 4 {
			return fmt.Errorf("pimdm: join/prune group truncated")
		}
		nj := int(binary.BigEndian.Uint16(b[0:2]))
		np := int(binary.BigEndian.Uint16(b[2:4]))
		b = b[4:]
		for k := 0; k < nj; k++ {
			var s ipv6.Addr
			s, b, err = getEncodedSource(b)
			if err != nil {
				return err
			}
			g.Joins = append(g.Joins, s)
		}
		for k := 0; k < np; k++ {
			var s ipv6.Addr
			s, b, err = getEncodedSource(b)
			if err != nil {
				return err
			}
			g.Prunes = append(g.Prunes, s)
		}
		j.Groups = append(j.Groups, g)
	}
	if len(b) != 0 {
		return fmt.Errorf("pimdm: %d trailing bytes in join/prune", len(b))
	}
	return nil
}

// Assert elects a single forwarder on a multi-access link (§4.7): triggered
// when a router receives a multicast datagram on an interface it itself
// forwards that (S,G) onto — the event the paper shows a moved mobile
// sender causing spuriously.
type Assert struct {
	Group            ipv6.Addr
	Source           ipv6.Addr
	RPTBit           bool
	MetricPreference uint32 // 31 bits
	Metric           uint32
}

// PIMType implements Message.
func (*Assert) PIMType() uint8 { return TypeAssert }

func (a *Assert) appendBody(b []byte) []byte {
	b = putEncodedGroup(b, a.Group)
	b = putEncodedUnicast(b, a.Source)
	pref := a.MetricPreference & 0x7fffffff
	if a.RPTBit {
		pref |= 0x80000000
	}
	b = binary.BigEndian.AppendUint32(b, pref)
	return binary.BigEndian.AppendUint32(b, a.Metric)
}

func (a *Assert) parse(b []byte) error {
	var err error
	a.Group, b, err = getEncodedGroup(b)
	if err != nil {
		return err
	}
	a.Source, b, err = getEncodedUnicast(b)
	if err != nil {
		return err
	}
	if len(b) != 8 {
		return fmt.Errorf("pimdm: assert metric block is %d bytes", len(b))
	}
	pref := binary.BigEndian.Uint32(b[0:4])
	a.RPTBit = pref&0x80000000 != 0
	a.MetricPreference = pref & 0x7fffffff
	a.Metric = binary.BigEndian.Uint32(b[4:8])
	return nil
}

// Declaration is an HPIM-DM per-neighbor reliable sync message: one
// (S,G) interest statement (TypeInterest / TypeNoInterest) unicast to the
// Target router, carrying a per-sender Seq the receiver echoes back in a
// TypeDeclAck. The sender retransmits until the matching ack arrives —
// hard state replacing PIM-DM's periodic holdtime refresh.
type Declaration struct {
	Kind uint8 // TypeInterest, TypeNoInterest or TypeDeclAck
	// Target is the router being addressed (the upstream neighbor for
	// declarations, the original declarer for acks).
	Target ipv6.Addr
	Seq    uint32
	Group  ipv6.Addr
	Source ipv6.Addr
}

// PIMType implements Message.
func (d *Declaration) PIMType() uint8 { return d.Kind }

func (d *Declaration) appendBody(b []byte) []byte {
	b = putEncodedUnicast(b, d.Target)
	b = binary.BigEndian.AppendUint32(b, d.Seq)
	b = putEncodedGroup(b, d.Group)
	return putEncodedSource(b, d.Source)
}

func (d *Declaration) parse(kind uint8, b []byte) error {
	d.Kind = kind
	var err error
	d.Target, b, err = getEncodedUnicast(b)
	if err != nil {
		return err
	}
	if len(b) < 4 {
		return fmt.Errorf("pimdm: declaration truncated")
	}
	d.Seq = binary.BigEndian.Uint32(b[0:4])
	b = b[4:]
	d.Group, b, err = getEncodedGroup(b)
	if err != nil {
		return err
	}
	d.Source, b, err = getEncodedSource(b)
	if err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("pimdm: %d trailing bytes in declaration", len(b))
	}
	return nil
}

// Better reports whether assert tuple (pref1, metric1, addr1) beats
// (pref2, metric2, addr2): lower preference wins, then lower metric, then
// HIGHER address (§4.7 tie-break).
func Better(pref1, metric1 uint32, addr1 ipv6.Addr, pref2, metric2 uint32, addr2 ipv6.Addr) bool {
	if pref1 != pref2 {
		return pref1 < pref2
	}
	if metric1 != metric2 {
		return metric1 < metric2
	}
	return addr2.Less(addr1)
}
