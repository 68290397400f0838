package ipv6

import (
	"bytes"
	"fmt"
	"slices"
)

// Packet is a parsed IPv6 datagram: the fixed header, the extension headers
// this system uses (in their RFC 2460 §4.1 recommended order), and the
// upper-layer payload. Encode/Decode are exact inverses for well-formed
// packets; links in the simulator carry the encoded form.
//
// Packets on the data path are shared and immutable. A link encodes the
// packet handed to it, decodes the frame with DecodeShared against it, and
// gives every receiver and tap of the transmission that decode, which is
// the sent packet itself whenever the frame decodes equal to it apart from
// a lowered hop limit (the common case). A router forwards the packet it
// received, not a copy: the hop limit is the one header field forwarding
// changes, so the count of routers passed travels beside the packet (see
// EncodeAppendHops) and Hdr.HopLimit stays what the packet's sender set.
// A tunnel entry wraps the packet it received the same way, with the count
// in InnerHops. So a packet handed to a link must never change afterwards,
// whether by its sender, a receiver, a forwarder or a tunnel. Code that
// changes a header field works on a copy of the Packet value and keeps
// sharing the payload, the option data and the inner packet; code that
// changes bytes Clones first.
type Packet struct {
	Hdr Header

	// Proto identifies the upper-layer payload (ProtoUDP, ProtoICMPv6,
	// ProtoPIM, ProtoIPv6 for tunnels, ProtoNoNext for none).
	Proto uint8
	// InnerHops counts the routers that forwarded Inner before it entered
	// the tunnel: the inner packet's hop limit on the wire is
	// Inner.Hdr.HopLimit - InnerHops (see EncapsulateHops). It is 0 when
	// Inner is nil. Proto and InnerHops fill Hdr's tail padding, which
	// keeps a Packet at 144 bytes on 64-bit platforms.
	InnerHops uint8

	HopByHop []Option        // Hop-by-Hop Options header, nil if absent
	Routing  *RoutingHeader  // Routing header, nil if absent
	Fragment *FragmentHeader // Fragment header, nil if absent
	DestOpts []Option        // Destination Options header, nil if absent

	Payload []byte

	// Inner is the tunneled packet of an IPv6-in-IPv6 packet (RFC 2473):
	// Encapsulate sets it, Decode parses it, and Encode writes it where the
	// payload goes, so a tunnel never encodes or decodes its inner packet a
	// second time. Payload is nil whenever Inner is set. Inner is nil for
	// every other protocol, for fragments, and for tunneled bytes that do
	// not parse, which then stay in Payload.
	Inner *Packet
}

// bodyLen is the encoded size of the upper-layer body: the payload, or the
// whole inner packet of a tunnel.
func (p *Packet) bodyLen() int {
	if p.Inner != nil {
		return p.Inner.WireLen()
	}
	return len(p.Payload)
}

// Encode serializes the packet, computing the fixed header's Payload Length
// and Next Header.
func (p *Packet) Encode() ([]byte, error) {
	return p.EncodeAppend(make([]byte, 0, HeaderLen+p.bodyLen()+64))
}

// EncodeAppend serializes the packet, appending to b (which may carry
// earlier data; the encoding starts at len(b)). Hot paths pass a recycled
// buffer here to avoid the per-frame allocation of Encode.
func (p *Packet) EncodeAppend(b []byte) ([]byte, error) { return p.encode(b, p.Hdr.HopLimit) }

// EncodeAppendHops is EncodeAppend for the packet as it leaves the hops-th
// router on its path: the frame carries a hop limit hops below
// Hdr.HopLimit, and is otherwise p's encoding. A link encodes every
// transmission this way, so a router sends on the packet it received
// instead of a copy with a lowered hop limit. hops must not exceed
// Hdr.HopLimit.
func (p *Packet) EncodeAppendHops(b []byte, hops uint8) ([]byte, error) {
	return p.encode(b, p.Hdr.HopLimit-hops)
}

// encode appends the encoding of p with the given hop limit.
func (p *Packet) encode(b []byte, hopLimit uint8) ([]byte, error) {
	// Determine the chain of next-header values front to back.
	first, chain := p.nextChain()
	start := len(b)
	hdr := p.Hdr
	hdr.HopLimit = hopLimit
	b = hdr.marshal(b, 0, first) // the Payload Length is patched in below
	var err error
	i := 0
	if p.HopByHop != nil {
		b, err = marshalOptions(b, chain[i], p.HopByHop)
		if err != nil {
			return nil, err
		}
		i++
	}
	if p.Routing != nil {
		b, err = p.Routing.marshal(b, chain[i])
		if err != nil {
			return nil, err
		}
		i++
	}
	if p.Fragment != nil {
		b = p.Fragment.marshal(b, chain[i])
		i++
	}
	if p.DestOpts != nil {
		b, err = marshalOptions(b, chain[i], p.DestOpts)
		if err != nil {
			return nil, err
		}
		i++
	}
	if p.Inner != nil {
		if b, err = p.Inner.EncodeAppendHops(b, p.InnerHops); err != nil {
			return nil, err
		}
	} else {
		b = append(b, p.Payload...)
	}
	plen := len(b) - start - HeaderLen
	if plen > 0xffff {
		return nil, fmt.Errorf("ipv6: payload %d exceeds 65535", plen)
	}
	b[start+4] = byte(plen >> 8)
	b[start+5] = byte(plen)
	return b, nil
}

// nextChain returns the first NextHeader value and, for each present
// extension header in order, the NextHeader value it carries. The chain is
// an array so that encoding allocates nothing for it.
func (p *Packet) nextChain() (first uint8, chain [4]uint8) {
	var kinds [4]uint8
	n := 0
	if p.HopByHop != nil {
		kinds[n], n = ProtoHopByHop, n+1
	}
	if p.Routing != nil {
		kinds[n], n = ProtoRouting, n+1
	}
	if p.Fragment != nil {
		kinds[n], n = ProtoFragment, n+1
	}
	if p.DestOpts != nil {
		kinds[n], n = ProtoDestOpts, n+1
	}
	if n == 0 {
		return p.Proto, chain
	}
	copy(chain[:], kinds[1:n])
	chain[n-1] = p.Proto
	return kinds[0], chain
}

// Decode parses an encoded IPv6 datagram. Unknown extension headers are an
// error; trailing bytes beyond the Payload Length are an error (links
// deliver exact frames). The packet keeps no reference to b. The body of an
// IPv6-in-IPv6 packet is parsed too, into Inner.
func Decode(b []byte) (*Packet, error) {
	p, _, err := DecodeShared(b, nil)
	return p, err
}

// noHint stands in for a nil sent: it shares nothing.
var noHint Packet

// DecodeShared decodes b, the encoding of sent, exactly as Decode does. It
// returns sent itself when the decode equals it field for field (see
// equal) apart from the hop limit, which may be lower in b than in sent:
// hops is then sent.Hdr.HopLimit minus b's hop limit, the count
// EncodeAppendHops encoded b with, and the packet b says is sent with its
// hop limit lowered by hops. A link decodes each frame this way against
// the packet it encoded the frame from, so every receiver and tap of a
// transmission gets the sender's own packet, a forwarded one included, and
// the decode allocates nothing. A tunnel's inner packet is decoded against
// sent's by this same rule, and the count that gives is the decode's
// InnerHops, so the frame of a tunnel entry that wrapped a packet some
// hops from its sender (EncapsulateHops) decodes to the entry's own outer
// and inner packets. Where the decode differs (a nil payload decodes as an
// empty one, raw tunnel bytes as an inner packet, padding options are
// dropped, the inner hop count is another) the result is a new Packet,
// with hops 0, that still shares every part of sent that decodes equal:
// the payload, an option list, the routing or fragment header, and the
// inner packet. sent may be nil, and a sent that does not match b only
// costs the sharing: the result is always what b says.
func DecodeShared(b []byte, sent *Packet) (p *Packet, hops uint8, err error) {
	hint := sent
	if hint == nil {
		hint = &noHint
	}
	var d Packet
	if err := d.decode(b, hint); err != nil {
		return nil, 0, err
	}
	if sent != nil {
		hl := d.Hdr.HopLimit
		if hl <= sent.Hdr.HopLimit {
			d.Hdr.HopLimit = sent.Hdr.HopLimit
		}
		if d.equal(sent) {
			return sent, sent.Hdr.HopLimit - hl, nil
		}
		d.Hdr.HopLimit = hl
	}
	p = new(Packet)
	*p = d
	return p, 0, nil
}

// decode fills p from b. b is borrowed: each part of p is hint's when it
// decodes equal to it, and otherwise copied out of b.
func (p *Packet) decode(b []byte, hint *Packet) error {
	plen, next, err := p.Hdr.unmarshal(b)
	if err != nil {
		return err
	}
	if want := HeaderLen + int(plen); len(b) != want {
		return fmt.Errorf("ipv6: frame is %d bytes, header says %d", len(b), want)
	}
	rest := b[HeaderLen:]
	var seen uint64 // bit h set: extension header h parsed (all four are < 64)
	for {
		switch next {
		case ProtoHopByHop, ProtoDestOpts, ProtoRouting, ProtoFragment:
			if seen&(1<<next) != 0 {
				return fmt.Errorf("ipv6: duplicate extension header %d", next)
			}
			seen |= 1 << next
		default:
			p.Proto = next
			p.setBody(rest, hint)
			return nil
		}
		var n int
		switch next {
		case ProtoHopByHop:
			p.HopByHop, next, n, err = unmarshalOptions(rest, hint.HopByHop)
		case ProtoDestOpts:
			p.DestOpts, next, n, err = unmarshalOptions(rest, hint.DestOpts)
		case ProtoRouting:
			p.Routing, next, n, err = unmarshalRouting(rest, hint.Routing)
		case ProtoFragment:
			p.Fragment, next, n, err = unmarshalFragment(rest, hint.Fragment)
		}
		if err != nil {
			return err
		}
		rest = rest[n:]
	}
}

// setBody stores the upper-layer body: a tunnel's inner packet and its
// hop count when it parses (decoded against hint's inner packet), else the
// payload bytes, hint's when they are equal.
func (p *Packet) setBody(body []byte, hint *Packet) {
	if p.Proto == ProtoIPv6 && p.Fragment == nil {
		if inner, hops, err := DecodeShared(body, hint.Inner); err == nil {
			p.Inner, p.InnerHops = inner, hops
			return
		}
	}
	// An empty body decodes as a non-nil empty Payload, so a nil hint
	// payload is never shared for it.
	if hint.Payload != nil && bytes.Equal(hint.Payload, body) {
		p.Payload = hint.Payload
		return
	}
	p.Payload = make([]byte, len(body))
	copy(p.Payload, body)
}

// equal reports whether p and q are the same packet field for field,
// sharing aside: option data, addresses and payloads compare by value, and
// only the presence of an extension header or a payload (nil or not) is
// compared for nil-ness.
func (p *Packet) equal(q *Packet) bool {
	if p.Hdr != q.Hdr || p.Proto != q.Proto || p.InnerHops != q.InnerHops ||
		!optionsEqual(p.HopByHop, q.HopByHop) || !optionsEqual(p.DestOpts, q.DestOpts) ||
		(p.Payload == nil) != (q.Payload == nil) || !bytes.Equal(p.Payload, q.Payload) {
		return false
	}
	if (p.Routing == nil) != (q.Routing == nil) || (p.Fragment == nil) != (q.Fragment == nil) {
		return false
	}
	if p.Routing != nil && (p.Routing.SegmentsLeft != q.Routing.SegmentsLeft || !slices.Equal(p.Routing.Addresses, q.Routing.Addresses)) {
		return false
	}
	if p.Fragment != nil && *p.Fragment != *q.Fragment {
		return false
	}
	if p.Inner == nil || q.Inner == nil {
		return p.Inner == q.Inner
	}
	return p.Inner == q.Inner || p.Inner.equal(q.Inner)
}

func optionsEqual(a, b []Option) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// WireLen returns the encoded size of the packet in bytes without allocating
// the encoding. Byte accounting in the simulator uses actual encoded frames,
// but metrics code sometimes needs the size of a hypothetical packet.
func (p *Packet) WireLen() int {
	n := HeaderLen + p.bodyLen()
	optLen := func(opts []Option) int {
		l := 2
		for _, o := range opts {
			if o.Type == OptPad1 {
				l++
			} else {
				l += 2 + len(o.Data)
			}
		}
		if rem := l % 8; rem != 0 {
			l += 8 - rem
		}
		return l
	}
	if p.HopByHop != nil {
		n += optLen(p.HopByHop)
	}
	if p.Routing != nil {
		n += 8 + 16*len(p.Routing.Addresses)
	}
	if p.Fragment != nil {
		n += 8
	}
	if p.DestOpts != nil {
		n += optLen(p.DestOpts)
	}
	return n
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.HopByHop != nil {
		q.HopByHop = cloneOptions(p.HopByHop)
	}
	if p.DestOpts != nil {
		q.DestOpts = cloneOptions(p.DestOpts)
	}
	if p.Routing != nil {
		r := *p.Routing
		r.Addresses = append([]Addr(nil), p.Routing.Addresses...)
		q.Routing = &r
	}
	if p.Fragment != nil {
		f := *p.Fragment
		q.Fragment = &f
	}
	q.Payload = append([]byte(nil), p.Payload...)
	if p.Inner != nil {
		q.Inner = p.Inner.Clone()
	}
	return &q
}

func cloneOptions(opts []Option) []Option {
	out := make([]Option, len(opts))
	for i, o := range opts {
		out[i] = Option{Type: o.Type, Data: append([]byte(nil), o.Data...)}
	}
	return out
}

// String gives a compact one-line description for traces.
func (p *Packet) String() string {
	proto := map[uint8]string{
		ProtoUDP: "udp", ProtoICMPv6: "icmp6", ProtoPIM: "pim",
		ProtoIPv6: "ip6-in-ip6", ProtoNoNext: "none",
	}[p.Proto]
	if proto == "" {
		proto = fmt.Sprintf("proto%d", p.Proto)
	}
	return fmt.Sprintf("%s -> %s %s hl=%d len=%d", p.Hdr.Src, p.Hdr.Dst, proto, p.Hdr.HopLimit, p.bodyLen())
}
