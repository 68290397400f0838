package ipv6

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the size of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram (RFC 768 over IPv6 per RFC 2460 §8.1: checksum
// mandatory). Multicast application traffic in the simulator is UDP.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// Marshal encodes the datagram with a valid checksum computed under the
// given pseudo-header addresses.
func (u *UDP) Marshal(src, dst Addr) []byte {
	n := UDPHeaderLen + len(u.Payload)
	b := make([]byte, n)
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(n))
	copy(b[8:], u.Payload)
	ck := Checksum(src, dst, ProtoUDP, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[6:8], ck)
	return b
}

// ParseUDP decodes and checksum-verifies a UDP datagram. It returns a
// value, so parsing allocates nothing; the datagram's Payload shares b:
// every receiver of a multicast datagram reads the same immutable bytes.
func ParseUDP(src, dst Addr, b []byte) (UDP, error) {
	if len(b) < UDPHeaderLen {
		return UDP{}, fmt.Errorf("ipv6: udp truncated: %d bytes", len(b))
	}
	l := int(binary.BigEndian.Uint16(b[4:6]))
	if l != len(b) {
		return UDP{}, fmt.Errorf("ipv6: udp length %d, frame %d", l, len(b))
	}
	if binary.BigEndian.Uint16(b[6:8]) == 0 {
		return UDP{}, fmt.Errorf("ipv6: udp zero checksum forbidden over IPv6")
	}
	if !VerifyChecksum(src, dst, ProtoUDP, b) {
		return UDP{}, fmt.Errorf("ipv6: udp checksum mismatch")
	}
	return UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[8:],
	}, nil
}
