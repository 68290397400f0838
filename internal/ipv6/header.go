package ipv6

import (
	"encoding/binary"
	"fmt"
)

// Protocol numbers carried in Next Header fields.
const (
	ProtoHopByHop uint8 = 0   // IPv6 Hop-by-Hop Options
	ProtoUDP      uint8 = 17  // UDP
	ProtoIPv6     uint8 = 41  // IPv6-in-IPv6 encapsulation (RFC 2473)
	ProtoRouting  uint8 = 43  // Routing header
	ProtoFragment uint8 = 44  // Fragment header
	ProtoICMPv6   uint8 = 58  // ICMPv6 (includes MLD and NDP)
	ProtoNoNext   uint8 = 59  // no next header
	ProtoDestOpts uint8 = 60  // Destination Options
	ProtoPIM      uint8 = 103 // Protocol Independent Multicast
)

// HeaderLen is the size of the fixed IPv6 header.
const HeaderLen = 40

// Version is the IP version encoded in every header.
const Version = 6

// DefaultHopLimit is the hop limit nodes use unless a protocol dictates
// otherwise (link-scoped protocols such as MLD, NDP and PIM use 1 or 255).
const DefaultHopLimit = 64

// Header is the fixed IPv6 header (RFC 2460 §3) without its two computed
// fields: the Payload Length and Next Header the codec derives from the
// rest of the Packet. A hand-built packet therefore equals its own decode.
type Header struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	HopLimit     uint8
	Src, Dst     Addr
}

// marshal appends the 40-byte fixed header to b, with the given Payload
// Length and Next Header.
func (h *Header) marshal(b []byte, payloadLen uint16, next uint8) []byte {
	var w [HeaderLen]byte
	w[0] = Version<<4 | h.TrafficClass>>4
	w[1] = h.TrafficClass<<4 | byte(h.FlowLabel>>16&0x0f)
	w[2] = byte(h.FlowLabel >> 8)
	w[3] = byte(h.FlowLabel)
	binary.BigEndian.PutUint16(w[4:6], payloadLen)
	w[6] = next
	w[7] = h.HopLimit
	copy(w[8:24], h.Src[:])
	copy(w[24:40], h.Dst[:])
	return append(b, w[:]...)
}

// unmarshal parses the fixed header from b and returns its Payload Length
// and Next Header.
func (h *Header) unmarshal(b []byte) (payloadLen uint16, next uint8, err error) {
	if len(b) < HeaderLen {
		return 0, 0, fmt.Errorf("ipv6: header truncated: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != Version {
		return 0, 0, fmt.Errorf("ipv6: version %d, want %d", v, Version)
	}
	h.TrafficClass = b[0]<<4 | b[1]>>4
	h.FlowLabel = uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3])
	h.HopLimit = b[7]
	copy(h.Src[:], b[8:24])
	copy(h.Dst[:], b[24:40])
	return binary.BigEndian.Uint16(b[4:6]), b[6], nil
}
