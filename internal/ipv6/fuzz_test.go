package ipv6

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the datagram decoder. Properties:
// decoding never panics; a decoded packet re-encodes; the re-encoding is a
// fixed point (decode, encode again, same bytes), whether it is decoded
// alone or against the packet it came from; decoding against that packet
// returns that very packet and keeps nothing of the frame; so does
// decoding a frame the packet was encoded into some hops on (its hop
// limit lowered), with that hop count, which gives back the frame's hop
// limit; a tunnel packet whose inner packet entered the tunnel some hops
// from its sender (InnerHops) encodes the inner hop limit that many below
// and decodes to itself; a hint whose hop limit is below the frame's is
// never returned, and neither is one that differs from the packet in any
// other field, its inner hop count included, whatever the frame's hop
// limit, though one that differs outside its extension headers lends the
// decode its Ext itself (nil when the frame carries none). `go test` runs
// the seeds; run `go test -fuzz FuzzDecode ./internal/ipv6` to search.
func FuzzDecode(f *testing.F) {
	// Every extension header kind but the fragment header, with option data.
	rich := samplePacket()
	rich.Hdr.Dst = MustParseAddr("2001:db8:6::1")
	rich.Ext = &Ext{
		HopByHop: []Option{RouterAlertOption(RouterAlertMLD)},
		Routing:  &RoutingHeader{SegmentsLeft: 1, Addresses: []Addr{MustParseAddr("2001:db8:4::9")}},
		DestOpts: []Option{{Type: OptHomeAddress, Data: bytes.Repeat([]byte{0xab}, 16)}},
	}
	frag := samplePacket()
	frag.Ext = &Ext{Fragment: &FragmentHeader{Offset: 3, More: true, ID: 9}}
	seeds := []*Packet{samplePacket(), rich, frag}
	for _, in := range []*Packet{samplePacket(), rich} {
		outer, err := Encapsulate(MustParseAddr("2001:db8::1"), MustParseAddr("2001:db8::2"), 64, in)
		if err != nil {
			f.Fatal(err)
		}
		twice, err := Encapsulate(MustParseAddr("2001:db8::3"), MustParseAddr("2001:db8::4"), 64, outer)
		if err != nil {
			f.Fatal(err)
		}
		withOpts := *outer
		withOpts.Ext = &Ext{DestOpts: []Option{{Type: 0x1e, Data: []byte{1, 2, 3}}}}
		seeds = append(seeds, outer, twice, &withOpts)
	}
	for _, p := range seeds {
		b, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded packet does not encode: %v", err)
		}
		if len(enc) != p.WireLen() {
			t.Fatalf("WireLen %d, encoding %d bytes", p.WireLen(), len(enc))
		}
		for _, hint := range []*Packet{nil, p} {
			frame := append([]byte(nil), enc...)
			q, hops, err := DecodeShared(frame, hint)
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
			}
			if hops != 0 {
				t.Fatalf("a frame with its packet's own hop limit decoded %d hops on", hops)
			}
			for i := range frame {
				frame[i] ^= 0xff
			}
			again, err := q.Encode()
			if err != nil {
				t.Fatalf("second decode does not encode: %v", err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", enc, again)
			}
			if hint == p && q != p {
				t.Fatalf("decoding against the packet the frame came from gave a copy: %v", q)
			}
		}
		// The frame of p some hops on decodes to p with that hop count.
		frames := [][]byte{enc}
		for _, hops := range []uint8{1, p.Hdr.HopLimit} {
			if hops == 0 || hops > p.Hdr.HopLimit {
				continue
			}
			frame, err := p.EncodeAppendHops(nil, hops)
			if err != nil {
				t.Fatalf("%d hops on: %v", hops, err)
			}
			q, got, err := DecodeShared(frame, p)
			if err != nil || q != p || got != hops || p.Hdr.HopLimit-got != frame[7] {
				t.Fatalf("%d hops on: decoded %v with %d hops (err %v), want the packet itself with %d", hops, q, got, err, hops)
			}
			frames = append(frames, frame)
		}
		// A tunnel entry some hops from the inner packet's sender: the
		// frame lowers the inner hop limit by the count and decodes to the
		// tunnel packet itself.
		if p.Inner != nil {
			for _, k := range []uint8{1, p.Inner.Hdr.HopLimit} {
				if k == 0 || k > p.Inner.Hdr.HopLimit {
					continue
				}
				tun := *p
				tun.InnerHops = k
				frame, err := tun.Encode()
				if err != nil {
					t.Fatalf("inner %d hops on: %v", k, err)
				}
				q, hops, err := DecodeShared(frame, &tun)
				if err != nil || q != &tun || q.Inner != p.Inner || hops != 0 {
					t.Fatalf("inner %d hops on: decoded %v with %d hops (err %v), want the tunnel packet itself", k, q, hops, err)
				}
				alone, err := Decode(frame)
				if err != nil || alone.InnerHops != 0 || alone.Inner == nil || alone.Inner.Hdr.HopLimit != p.Inner.Hdr.HopLimit-k {
					t.Fatalf("inner %d hops on: decoded alone to %v (err %v), want inner hop limit %d", k, alone, err, p.Inner.Hdr.HopLimit-k)
				}
			}
		}
		// A hint below the frame's hop limit is not its packet hops back.
		if p.Hdr.HopLimit > 0 {
			v := *p
			v.Hdr.HopLimit--
			if q, _, err := DecodeShared(enc, &v); err != nil || q == &v {
				t.Fatalf("a hint with a hop limit below the frame's was returned (err %v)", err)
			}
		}
		for _, frame := range frames {
			for i, change := range hintChanges {
				v := *p
				change(&v)
				q, hops, err := DecodeShared(frame, &v)
				if err != nil {
					t.Fatalf("change %d: %v", i, err)
				}
				if q == &v {
					t.Fatalf("change %d: a hint that differs from the frame was returned: %v", i, q)
				}
				if v.Ext == p.Ext && q.Ext != v.Ext {
					t.Fatalf("change %d: headers equal to the hint's decoded to Ext %p, want the hint's %p", i, q.Ext, v.Ext)
				}
				if again, err := q.EncodeAppendHops(nil, hops); err != nil || !bytes.Equal(again, frame) {
					t.Fatalf("change %d: decoding against a differing hint gave %x (err %v), want %x", i, again, err, frame)
				}
			}
		}
		if TunnelDepth(p) > 0 && Innermost(p) == p {
			t.Fatal("tunnel packet with depth > 0 is its own innermost packet")
		}
	})
}

// hintChanges each change one field of a packet other than its hop limit,
// so that it no longer equals what its encoding decodes to at any hop.
var hintChanges = []func(p *Packet){
	func(p *Packet) { p.Hdr.TrafficClass ^= 1 },
	func(p *Packet) { p.Hdr.FlowLabel ^= 1 },
	func(p *Packet) { p.Hdr.Src[15] ^= 1 },
	func(p *Packet) { p.Hdr.Dst[0] ^= 1 },
	func(p *Packet) { p.Proto ^= 1 },
	func(p *Packet) { changeExt(p, func(e *Ext) { e.HopByHop = changeOptions(e.HopByHop) }) },
	func(p *Packet) { changeExt(p, func(e *Ext) { e.DestOpts = changeOptions(e.DestOpts) }) },
	func(p *Packet) {
		changeExt(p, func(e *Ext) {
			if e.Routing == nil {
				e.Routing = &RoutingHeader{}
				return
			}
			r := *e.Routing
			r.Addresses = append(append([]Addr(nil), r.Addresses...), Loopback)
			e.Routing = &r
		})
	},
	func(p *Packet) {
		changeExt(p, func(e *Ext) {
			if e.Fragment == nil {
				e.Fragment = &FragmentHeader{}
				return
			}
			f := *e.Fragment
			f.ID++
			e.Fragment = &f
		})
	},
	func(p *Packet) { p.Payload = append(bytes.Clone(p.Payload), 0) },
	func(p *Packet) {
		if p.Inner == nil {
			p.Inner = samplePacket()
			return
		}
		// An inner hop limit below the frame's is not the inner packet
		// some hops back.
		in := *p.Inner
		in.Hdr.HopLimit--
		p.Inner = &in
	},
	func(p *Packet) { p.InnerHops ^= 1 },
}

// changeExt gives p a changed copy of its extension headers (of none, if it
// has none), leaving the Ext it had as it was.
func changeExt(p *Packet, change func(e *Ext)) {
	var e Ext
	if p.Ext != nil {
		e = *p.Ext
	}
	change(&e)
	p.Ext = &e
}

// changeOptions returns opts with one more option, or an empty header's
// option list in place of an absent one.
func changeOptions(opts []Option) []Option {
	if opts == nil {
		return []Option{}
	}
	return append(append([]Option(nil), opts...), Option{Type: 0x1e, Data: []byte{1}})
}

// FuzzMobility feeds arbitrary option data to the Mobile IPv6 destination
// option parsers: the Binding Update with its Unique Identifier, Alternate
// Care-of Address and Multicast Group List (the paper's Figure 5)
// sub-options, the Binding Acknowledgement, the Binding Request and the
// Home Address option. Properties: parsing never panics, and parse →
// marshal → parse is a fixed point: what parses marshals, the marshalled
// option parses to the same value, and that value marshals to the same
// bytes. The one parsed value Marshal may refuse is a Binding Update whose
// group-list sub-options add up to more than one sub-option holds. Seeds
// are in testdata/fuzz/FuzzMobility; run
// `go test -fuzz FuzzMobility ./internal/ipv6` to search.
func FuzzMobility(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		o := Option{Type: typ, Data: data}
		switch typ {
		case OptBindingUpdate:
			bu, err := ParseBindingUpdate(o)
			if err != nil {
				return
			}
			m, err := bu.Marshal()
			if err != nil {
				if len(bu.GroupList) > GroupListCapacity {
					return
				}
				t.Fatalf("parsed binding update %+v does not marshal: %v", bu, err)
			}
			again, err := ParseBindingUpdate(m)
			if err != nil {
				t.Fatalf("marshalled binding update %x does not parse: %v", m.Data, err)
			}
			if !reflect.DeepEqual(again, bu) {
				t.Fatalf("binding update changed through marshal:\n first %+v\nsecond %+v", bu, again)
			}
			if m2, err := again.Marshal(); err != nil || !bytes.Equal(m2.Data, m.Data) {
				t.Fatalf("binding update marshals to %x (err %v), then %x", m.Data, err, m2.Data)
			}
		case OptBindingAck:
			ack, err := ParseBindingAck(o)
			if err != nil {
				return
			}
			m := ack.Marshal()
			again, err := ParseBindingAck(m)
			if err != nil || *again != *ack || !bytes.Equal(m.Data, data) {
				t.Fatalf("binding ack %x parsed to %+v re-marshals to %x (reparsed %+v, err %v)", data, ack, m.Data, again, err)
			}
		case OptBindingReq:
			if _, err := ParseBindingRequest(o); err != nil {
				return
			}
			m := BindingRequest{}.Marshal()
			if _, err := ParseBindingRequest(m); err != nil || len(m.Data) != 0 {
				t.Fatalf("binding request re-marshals to %x (err %v)", m.Data, err)
			}
		case OptHomeAddress:
			h, err := ParseHomeAddress(o)
			if err != nil {
				return
			}
			m := h.Marshal()
			again, err := ParseHomeAddress(m)
			if err != nil || *again != *h || !bytes.Equal(m.Data, data) {
				t.Fatalf("home address %x parsed to %v re-marshals to %x (reparsed %v, err %v)", data, h.HomeAddress, m.Data, again, err)
			}
		}
	})
}
