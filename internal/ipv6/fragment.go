package ipv6

import (
	"fmt"
	"time"
)

// IPv6 fragmentation (RFC 2460 §4.5). In IPv6 only the *source* of a
// packet may fragment — routers drop too-big packets. The case this system
// exercises is the classic Mobile IPv6 tunnel problem the paper's
// conclusion alludes to ("implementation issues, in particular with the
// proposed uni-directional tunnels"): encapsulation adds 40 bytes, so an
// inner packet near the link MTU makes the *outer* packet exceed it, and
// the tunnel entry point (the home agent or mobile node, as the outer
// packet's source) must fragment; the tunnel exit reassembles.
//
// Fragmentation here covers packets without extension headers (which
// includes every tunnel outer packet this system generates); fragmenting
// a packet with extension headers returns an error.

// MinMTU is the IPv6 minimum link MTU.
const MinMTU = 1280

// Fragment splits pkt into fragments whose encoded size is ≤ mtu, using
// the given fragment identification value. The packet must carry no
// extension headers. If the packet already fits, it is returned alone
// (unmodified, no fragment header).
func Fragment(pkt *Packet, mtu int, id uint32) ([]*Packet, error) {
	whole, err := pkt.Encode()
	if err != nil {
		return nil, err
	}
	if len(whole) <= mtu {
		return []*Packet{pkt}, nil
	}
	if !pkt.Ext.equal(nil) {
		return nil, fmt.Errorf("ipv6: cannot fragment packet with extension headers")
	}
	// Per-fragment capacity: mtu - fixed header - fragment header, rounded
	// down to a multiple of 8 (offsets are in 8-octet units).
	capacity := (mtu - HeaderLen - 8) &^ 7
	if capacity <= 0 {
		return nil, fmt.Errorf("ipv6: mtu %d too small to fragment", mtu)
	}
	// Without extension headers the body follows the fixed header; taking
	// it from the encoding also covers a tunnel packet, whose body is its
	// inner packet.
	payload := whole[HeaderLen:]
	var frags []*Packet
	for off := 0; off < len(payload); off += capacity {
		end := off + capacity
		more := true
		if end >= len(payload) {
			end = len(payload)
			more = false
		}
		// Each fragment gets an Ext of its own: its header differs from
		// every other fragment's.
		f := &Packet{
			Hdr:     pkt.Hdr,
			Ext:     &Ext{Fragment: &FragmentHeader{Offset: uint16(off / 8), More: more, ID: id}},
			Proto:   pkt.Proto,
			Payload: payload[off:end],
		}
		frags = append(frags, f)
	}
	return frags, nil
}

// reassemblyKey identifies one original packet's fragments.
type reassemblyKey struct {
	src, dst Addr
	id       uint32
}

type reassemblyBuf struct {
	fragments map[uint16][]byte // by offset (8-octet units)
	proto     uint8
	hdr       Header
	total     int // bytes received
	lastEnd   int // payload length once the final fragment arrives
	haveLast  bool
	deadline  time.Duration // virtual time bound, managed by the caller
}

// Reassembler collects fragments and yields whole packets. It is
// deliberately clock-agnostic: call Expire periodically with the caller's
// notion of elapsed time to shed incomplete buffers (RFC 2460 gives
// sources 60 seconds).
type Reassembler struct {
	bufs map[reassemblyKey]*reassemblyBuf
	// Timeout after which an incomplete reassembly is dropped.
	Timeout time.Duration
	// Drops counts abandoned reassemblies.
	Drops uint64
}

// NewReassembler returns a reassembler with the RFC 2460 60 s timeout.
func NewReassembler() *Reassembler {
	return &Reassembler{bufs: map[reassemblyKey]*reassemblyBuf{}, Timeout: 60 * time.Second}
}

// Pending reports the number of incomplete reassemblies.
func (r *Reassembler) Pending() int { return len(r.bufs) }

// Offer consumes a fragment that arrived hops routers after its sender
// sent it (its hop limit on the wire is pkt.Hdr.HopLimit - hops); when it
// completes a packet, the reassembled packet is returned, with the hop
// limit its first-offered fragment arrived with. now is the caller's
// virtual time, used for expiry bookkeeping. Non-fragment packets are
// returned unchanged. The reassembler keeps pkt's payload, not pkt.
func (r *Reassembler) Offer(pkt *Packet, hops uint8, now time.Duration) *Packet {
	fh := pkt.Fragment()
	if fh == nil {
		return pkt
	}
	key := reassemblyKey{src: pkt.Hdr.Src, dst: pkt.Hdr.Dst, id: fh.ID}
	buf, ok := r.bufs[key]
	if !ok {
		buf = &reassemblyBuf{
			fragments: map[uint16][]byte{},
			proto:     pkt.Proto,
			hdr:       pkt.Hdr,
			deadline:  now + r.Timeout,
		}
		buf.hdr.HopLimit -= hops
		r.bufs[key] = buf
	}
	if _, dup := buf.fragments[fh.Offset]; dup {
		return nil // duplicate fragment
	}
	buf.fragments[fh.Offset] = pkt.Payload
	buf.total += len(pkt.Payload)
	if !fh.More {
		buf.haveLast = true
		buf.lastEnd = int(fh.Offset)*8 + len(pkt.Payload)
	}
	if !buf.haveLast || buf.total < buf.lastEnd {
		return nil
	}
	// Complete: stitch in offset order.
	out := make([]byte, buf.lastEnd)
	covered := 0
	for off, part := range buf.fragments {
		start := int(off) * 8
		if start+len(part) > len(out) {
			// Overlapping/garbage fragments: abandon.
			delete(r.bufs, key)
			r.Drops++
			return nil
		}
		copy(out[start:], part)
		covered += len(part)
	}
	delete(r.bufs, key)
	if covered != buf.lastEnd {
		r.Drops++
		return nil // holes
	}
	return &Packet{Hdr: buf.hdr, Proto: buf.proto, Payload: out}
}

// Expire drops incomplete reassemblies older than the timeout.
func (r *Reassembler) Expire(now time.Duration) {
	for key, buf := range r.bufs {
		if now >= buf.deadline {
			delete(r.bufs, key)
			r.Drops++
		}
	}
}
