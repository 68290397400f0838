package ipv6

import "fmt"

// RFC 2473 generic packet tunneling: the entry-point node wraps the original
// packet as the payload of a new IPv6 header (next header 41); the exit
// point unwraps. Mobile IPv6 home agents tunnel intercepted packets to the
// mobile node's care-of address this way, and mobile nodes reverse-tunnel
// outgoing (including multicast) packets to their home agent.
//
// A tunnel packet holds its inner packet as a *Packet (Packet.Inner), not as
// bytes: encapsulation shares the inner packet, the link encodes it once as
// part of the outer frame, and the decoded outer packet carries the inner
// one already parsed, so decapsulation, taps and byte accounting never
// decode it again. A tunnel entry wraps the packet it received, not a copy
// with its hop limit lowered: the count of routers the inner packet passed
// before the tunnel travels in the outer packet (Packet.InnerHops), as the
// count of routers a forwarded packet passed travels beside it.

// TunnelOverheadBytes is the per-packet cost of one encapsulation layer: one
// extra fixed IPv6 header.
const TunnelOverheadBytes = HeaderLen

// Encapsulate wraps inner, a packet the tunnel entry builds itself, in an
// outer header from src to dst: EncapsulateHops with an inner hop count
// of 0.
func Encapsulate(src, dst Addr, hopLimit uint8, inner *Packet) (*Packet, error) {
	return EncapsulateHops(src, dst, hopLimit, inner, 0)
}

// EncapsulateHops wraps inner in an outer header from src to dst. The
// inner packet is carried as the tunnel entry received it, innerHops
// routers from its sender: its hop limit on the wire is
// inner.Hdr.HopLimit - innerHops, and the tunnel does not touch it
// (RFC 2473 §3.1). It is shared, not copied: it must not change while the
// outer packet is in use. A home agent tunnels a received packet with the
// receive's hop count (netem.RxPacket.Hops). innerHops must not exceed
// inner.Hdr.HopLimit.
func EncapsulateHops(src, dst Addr, hopLimit uint8, inner *Packet, innerHops uint8) (*Packet, error) {
	if n := inner.WireLen(); n > 0xffff {
		return nil, fmt.Errorf("ipv6: encapsulate: inner packet of %d bytes exceeds the 65535-byte payload limit", n)
	}
	return &Packet{
		Hdr: Header{
			Src:      src,
			Dst:      dst,
			HopLimit: hopLimit,
		},
		Proto:     ProtoIPv6,
		InnerHops: innerHops,
		Inner:     inner,
	}, nil
}

// Decapsulate unwraps one layer of IPv6-in-IPv6 encapsulation, returning the
// inner packet and its hop count (outer.InnerHops): the inner packet left
// the tunnel with hop limit inner.Hdr.HopLimit - hops. The inner packet is
// shared with outer.
func Decapsulate(outer *Packet) (inner *Packet, hops uint8, err error) {
	if outer.Proto != ProtoIPv6 {
		return nil, 0, fmt.Errorf("ipv6: decapsulate: payload protocol %d is not IPv6", outer.Proto)
	}
	if outer.Inner != nil {
		return outer.Inner, outer.InnerHops, nil
	}
	if inner, err = Decode(outer.Payload); err != nil {
		return nil, 0, fmt.Errorf("ipv6: decapsulate inner: %w", err)
	}
	return inner, 0, nil
}
