package ipv6

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func samplePacket() *Packet {
	return &Packet{
		Hdr: Header{
			TrafficClass: 0xb8,
			FlowLabel:    0xabcde,
			HopLimit:     64,
			Src:          MustParseAddr("2001:db8:1::10"),
			Dst:          MustParseAddr("ff0e::101"),
		},
		Proto:   ProtoUDP,
		Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
}

func TestEncodeDecodeBare(t *testing.T) {
	p := samplePacket()
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen+10 {
		t.Fatalf("encoded %d bytes, want %d", len(b), HeaderLen+10)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Hdr.Src != p.Hdr.Src || q.Hdr.Dst != p.Hdr.Dst {
		t.Error("addresses mangled")
	}
	if q.Hdr.TrafficClass != 0xb8 || q.Hdr.FlowLabel != 0xabcde || q.Hdr.HopLimit != 64 {
		t.Errorf("header fields mangled: %+v", q.Hdr)
	}
	if q.Proto != ProtoUDP || !bytes.Equal(q.Payload, p.Payload) {
		t.Error("payload mangled")
	}
}

func TestEncodeDecodeAllExtensionHeaders(t *testing.T) {
	alt := MustParseAddr("2001:db8:9::1")
	bu := &BindingUpdate{Ack: true, HomeReg: true, Sequence: 7, Lifetime: 256, AltCareOf: &alt}
	buOpt, err := bu.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p := samplePacket()
	p.HopByHop = []Option{RouterAlertOption(RouterAlertMLD)}
	p.Routing = &RoutingHeader{
		SegmentsLeft: 1,
		Addresses:    []Addr{MustParseAddr("2001:db8:2::2"), MustParseAddr("2001:db8:3::3")},
	}
	p.Fragment = &FragmentHeader{Offset: 0, More: false, ID: 0xdeadbeef}
	p.DestOpts = []Option{buOpt}

	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.HopByHop) != 1 || q.HopByHop[0].Type != OptRouterAlert {
		t.Errorf("hop-by-hop = %+v", q.HopByHop)
	}
	if q.Routing == nil || q.Routing.SegmentsLeft != 1 || len(q.Routing.Addresses) != 2 {
		t.Errorf("routing = %+v", q.Routing)
	}
	if q.Fragment == nil || q.Fragment.ID != 0xdeadbeef || q.Fragment.More {
		t.Errorf("fragment = %+v", q.Fragment)
	}
	if len(q.DestOpts) != 1 {
		t.Fatalf("dest opts = %+v", q.DestOpts)
	}
	bu2, err := ParseBindingUpdate(q.DestOpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bu, bu2) {
		t.Errorf("binding update through full packet: got %+v want %+v", bu2, bu)
	}
	if q.Proto != ProtoUDP || !bytes.Equal(q.Payload, p.Payload) {
		t.Error("payload mangled through extension chain")
	}
}

func TestWireLenMatchesEncode(t *testing.T) {
	ps := []*Packet{
		samplePacket(),
		func() *Packet {
			p := samplePacket()
			p.HopByHop = []Option{RouterAlertOption(0)}
			return p
		}(),
		func() *Packet {
			p := samplePacket()
			p.DestOpts = []Option{{Type: 0x33, Data: make([]byte, 21)}}
			p.Routing = &RoutingHeader{Addresses: []Addr{Loopback}}
			p.Fragment = &FragmentHeader{ID: 1}
			return p
		}(),
		func() *Packet {
			p := samplePacket()
			p.DestOpts = []Option{{Type: OptPad1}} // explicit pad option
			return p
		}(),
	}
	for i, p := range ps {
		b, err := p.Encode()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if p.WireLen() != len(b) {
			t.Errorf("case %d: WireLen = %d, encoded = %d", i, p.WireLen(), len(b))
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, _ := samplePacket().Encode()
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:20],
		"bad version":    append([]byte{0x40}, good[1:]...),
		"truncated body": good[:len(good)-3],
		"trailing junk":  append(append([]byte{}, good...), 0, 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted malformed frame", name)
		}
	}
}

func TestDecodeRejectsDuplicateExtHeader(t *testing.T) {
	// Hand-build: IPv6 header -> HBH -> HBH -> UDP.
	p := samplePacket()
	p.HopByHop = []Option{RouterAlertOption(0)}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The HBH header begins at offset 40; its first byte is NextHeader.
	// Point it at another HBH and append a second one.
	hbh := make([]byte, 8)
	copy(hbh, b[40:48])
	b[40+0] = ProtoHopByHop // first HBH now chains to a second
	frame := append(b[:48:48], hbh...)
	frame = append(frame, b[48:]...)
	// Fix payload length.
	plen := len(frame) - HeaderLen
	frame[4], frame[5] = byte(plen>>8), byte(plen)
	if _, err := Decode(frame); err == nil {
		t.Fatal("Decode accepted duplicate hop-by-hop header")
	}
}

func TestDecodeRoutingHeaderValidation(t *testing.T) {
	p := samplePacket()
	p.Routing = &RoutingHeader{SegmentsLeft: 5, Addresses: []Addr{Loopback}}
	if _, err := p.Encode(); err != nil {
		t.Fatal(err)
	}
	b, _ := p.Encode()
	if _, err := Decode(b); err == nil {
		t.Fatal("Decode accepted segments-left > address count")
	}
}

func TestOptionsPaddingAlignment(t *testing.T) {
	// Every options header must encode to a multiple of 8 bytes regardless
	// of option payload size.
	for size := 0; size <= 64; size++ {
		p := samplePacket()
		p.DestOpts = []Option{{Type: 0x37, Data: make([]byte, size)}}
		b, err := p.Encode()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		extLen := len(b) - HeaderLen - len(p.Payload)
		if extLen%8 != 0 {
			t.Fatalf("size %d: ext header len %d not multiple of 8", size, extLen)
		}
		q, err := Decode(b)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(q.DestOpts) != 1 || len(q.DestOpts[0].Data) != size {
			t.Fatalf("size %d: roundtrip lost option", size)
		}
	}
}

func TestEmptyOptionsHeaderRoundtrip(t *testing.T) {
	p := samplePacket()
	p.DestOpts = []Option{}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.DestOpts == nil {
		t.Fatal("empty dest-opts header lost on roundtrip")
	}
	if len(q.DestOpts) != 0 {
		t.Fatalf("phantom options: %+v", q.DestOpts)
	}
}

func TestFindOption(t *testing.T) {
	opts := []Option{{Type: 1, Data: []byte{1}}, {Type: 5, Data: []byte{5}}}
	if o, ok := FindOption(opts, 5); !ok || o.Data[0] != 5 {
		t.Error("FindOption missed present option")
	}
	if _, ok := FindOption(opts, 9); ok {
		t.Error("FindOption found absent option")
	}
}

func TestPacketClone(t *testing.T) {
	p := samplePacket()
	p.DestOpts = []Option{{Type: 7, Data: []byte{1, 2}}}
	p.Routing = &RoutingHeader{Addresses: []Addr{Loopback}}
	p.Fragment = &FragmentHeader{ID: 9}
	q := p.Clone()
	q.Payload[0] = 0xee
	q.DestOpts[0].Data[0] = 0xee
	q.Routing.Addresses[0] = AllNodes
	q.Fragment.ID = 1
	if p.Payload[0] == 0xee || p.DestOpts[0].Data[0] == 0xee {
		t.Error("Clone shares payload/option storage")
	}
	if p.Routing.Addresses[0] == AllNodes || p.Fragment.ID == 1 {
		t.Error("Clone shares routing/fragment storage")
	}

	inner := samplePacket()
	outer, err := EncapsulateHops(Loopback, Loopback, 64, inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := outer.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c := outer.Clone()
	if got, err := c.Encode(); err != nil || !bytes.Equal(got, want) || c.InnerHops != 3 {
		t.Errorf("clone of a tunnel packet encodes to %x (count %d, err %v), want %x", got, c.InnerHops, err, want)
	}
	c.Inner.Payload[0] = 0xee
	if c.Inner == inner || inner.Payload[0] == 0xee {
		t.Error("Clone shares the inner packet")
	}
}

// TestPacketSize gates the Packet struct at the 144-byte allocation size
// class on 64-bit platforms: Proto and InnerHops sit in the fixed header's
// padding. Every packet that is still allocated, the outer packet of each
// tunnel leg among them, pays for a field added elsewhere.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 144 {
		t.Errorf("ipv6.Packet is %d bytes; keep it within 144", n)
	}
}

func TestDecodeSharedAliasesSentPayload(t *testing.T) {
	sent := samplePacket()
	frame, err := sent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, hops, err := DecodeShared(frame, sent)
	if err != nil {
		t.Fatal(err)
	}
	if got != sent || hops != 0 {
		t.Errorf("DecodeShared decoded afresh a frame equal to the sent packet (hops %d)", hops)
	}
	plain, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &plain.Payload[0] == &sent.Payload[0] || !bytes.Equal(plain.Payload, sent.Payload) {
		t.Error("Decode must copy the payload out of the frame")
	}
	// A hint whose hop limit is above the frame's is the frame's packet
	// some routers back: it is returned with that hop count.
	up := *sent
	up.Hdr.HopLimit += 3
	if got, hops, err = DecodeShared(frame, &up); err != nil {
		t.Fatal(err)
	}
	if got != &up || hops != 3 {
		t.Errorf("hint 3 hops back: got %v with %d hops, want the hint with 3", got, hops)
	}
	// A hint whose header differs otherwise, a hop limit below the
	// frame's included, still lends its equal payload.
	for name, change := range map[string]func(h *Header){
		"hop limit below": func(h *Header) { h.HopLimit-- },
		"flow label":      func(h *Header) { h.FlowLabel ^= 1 },
	} {
		hint := *sent
		change(&hint.Hdr)
		if got, hops, err = DecodeShared(frame, &hint); err != nil {
			t.Fatal(err)
		}
		if got == &hint || hops != 0 || got.Hdr != sent.Hdr || &got.Payload[0] != &sent.Payload[0] {
			t.Errorf("%s: got %v with %d hops, want a new packet sharing the payload", name, got, hops)
		}
	}
	// A hint that does not match the frame only loses the sharing.
	other := samplePacket()
	other.Payload = []byte("different")
	if got, _, err = DecodeShared(frame, other); err != nil {
		t.Fatal(err)
	}
	if got == other || !bytes.Equal(got.Payload, sent.Payload) {
		t.Errorf("mismatched hint leaked into the result: %q", got.Payload)
	}
}

// TestDecodeSharedSharesEqualInner checks the tunnel half of DecodeShared:
// an inner packet that decodes equal to the sent one field for field is the
// sent one, at every hop, whether it was decoded or built by hand, and
// whether the tunnel entry received it from its sender or some routers on
// (the outer packet's inner hop count); any difference gets a fresh,
// faithful decode.
func TestDecodeSharedSharesEqualInner(t *testing.T) {
	src, dst := MustParseAddr("2001:db8:4::1"), MustParseAddr("2001:db8:6::beef")
	sent := samplePacket()
	sent.DestOpts = []Option{(&HomeAddressOption{HomeAddress: src}).Marshal()}
	frame, err := sent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	received, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	// A home agent tunnels the packet as it received it, and each router
	// on the way sends the same outer packet on, one hop further.
	outer, err := Encapsulate(src, dst, DefaultHopLimit, received)
	if err != nil {
		t.Fatal(err)
	}
	for hop := uint8(0); hop < 3; hop++ {
		if frame, err = outer.EncodeAppendHops(nil, hop); err != nil {
			t.Fatal(err)
		}
		got, hops, err := DecodeShared(frame, outer)
		if err != nil {
			t.Fatal(err)
		}
		if got != outer || got.Inner != received || hops != hop {
			t.Fatalf("hop %d: decoded packet is a copy (or %d hops), want the tunneled packet itself", hop, hops)
		}
	}
	// A home agent two routers from the sender tunnels the packet it
	// received: the frame carries the inner hop limit two below the
	// sender's, and decodes to the tunnel entry's packets at every hop.
	outer, err = EncapsulateHops(src, dst, DefaultHopLimit, sent, 2)
	if err != nil {
		t.Fatal(err)
	}
	for hop := uint8(0); hop < 3; hop++ {
		if frame, err = outer.EncodeAppendHops(nil, hop); err != nil {
			t.Fatal(err)
		}
		if inner := frame[HeaderLen+7]; inner != sent.Hdr.HopLimit-2 {
			t.Fatalf("hop %d: inner hop limit %d on the wire, want %d", hop, inner, sent.Hdr.HopLimit-2)
		}
		got, hops, err := DecodeShared(frame, outer)
		if err != nil {
			t.Fatal(err)
		}
		if got != outer || got.Inner != sent || hops != hop {
			t.Fatalf("hop %d: decoded %+v with %d hops, want the tunneled packet itself", hop, got, hops)
		}
	}
	// The header holds no computed field, so a hand-built inner equals its
	// own decode and is shared too.
	outer, err = Encapsulate(src, dst, DefaultHopLimit, sent)
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = outer.Encode(); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeShared(frame, outer)
	if err != nil {
		t.Fatal(err)
	}
	if got != outer || got.Inner != sent {
		t.Errorf("hand-built inner: got %+v, want the sent packet itself", got.Inner)
	}
	// The frame's inner packet left its sender with hop limit 64 and
	// entered the tunnel there (count 0). An inner hint with a higher hop
	// limit is that packet some routers back: it is returned as the inner
	// packet, with the count, and the outer hint only when its count says
	// so too. A hint that differs in any other field, or whose hop limit
	// is below the frame's, is never returned. Whatever is returned, the
	// result encodes to the frame.
	for _, c := range []struct {
		name      string
		change    func(p *Packet)
		innerHops uint8 // the outer hint's count
		outer     bool  // the outer hint is returned
		inner     bool  // the inner hint is returned, with count innerHops
	}{
		{"hop limit below", func(p *Packet) { p.Hdr.HopLimit-- }, 0, false, false},
		{"hop limit above, count 0", func(p *Packet) { p.Hdr.HopLimit++ }, 0, false, true},
		{"hop limit above, count 1", func(p *Packet) { p.Hdr.HopLimit++ }, 1, true, true},
		{"count 1", func(p *Packet) {}, 1, false, true},
		{"option data", func(p *Packet) { p.DestOpts = []Option{{Type: OptHomeAddress, Data: make([]byte, 16)}} }, 0, false, false},
		{"no options", func(p *Packet) { p.DestOpts = nil }, 0, false, false},
		{"payload", func(p *Packet) { p.Payload = []byte("different") }, 0, false, false},
	} {
		hint := *received
		c.change(&hint)
		wrapped := *outer
		wrapped.Inner, wrapped.InnerHops = &hint, c.innerHops
		got, hops, err := DecodeShared(frame, &wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if (got == &wrapped) != c.outer {
			t.Errorf("%s: outer hint returned: %v, want %v", c.name, got == &wrapped, c.outer)
		}
		wantHops := hint.Hdr.HopLimit - received.Hdr.HopLimit
		switch {
		case c.inner && (got.Inner != &hint || got.InnerHops != wantHops):
			t.Errorf("%s: got inner %+v with count %d, want the hint with count %d", c.name, got.Inner, got.InnerHops, wantHops)
		case !c.inner && (got.Inner == &hint || got.InnerHops != 0 || !reflect.DeepEqual(got.Inner, received)):
			t.Errorf("%s: mismatched inner hint leaked into the result: %+v", c.name, got.Inner)
		}
		if again, err := got.EncodeAppendHops(nil, hops); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%s: result encodes to %x (err %v), want the frame %x", c.name, again, err, frame)
		}
	}
}

func TestPacketString(t *testing.T) {
	s := samplePacket().String()
	if s == "" {
		t.Fatal("empty String()")
	}
	p := samplePacket()
	p.Proto = 200
	if got := p.String(); got == "" {
		t.Fatal("empty String() for unknown proto")
	}
}

func TestHopLimitPreservedThroughCodec(t *testing.T) {
	for _, hl := range []uint8{0, 1, 64, 255} {
		p := samplePacket()
		p.Hdr.HopLimit = hl
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if q.Hdr.HopLimit != hl {
			t.Errorf("hop limit %d -> %d", hl, q.Hdr.HopLimit)
		}
	}
}

// Property: encode/decode roundtrips arbitrary payloads and flow labels.
func TestQuickPacketRoundtrip(t *testing.T) {
	f := func(src, dst [16]byte, tc uint8, fl uint32, hl uint8, proto uint8, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		switch proto {
		case ProtoHopByHop, ProtoRouting, ProtoFragment, ProtoDestOpts:
			proto = ProtoUDP // those values are ext headers, not payloads
		}
		p := &Packet{
			Hdr: Header{
				TrafficClass: tc,
				FlowLabel:    fl & 0xfffff,
				HopLimit:     hl,
				Src:          Addr(src),
				Dst:          Addr(dst),
			},
			Proto:   proto,
			Payload: payload,
		}
		b, err := p.Encode()
		if err != nil {
			return false
		}
		q, err := Decode(b)
		if err != nil {
			return false
		}
		return q.Hdr == p.Hdr && q.Proto == proto && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPacketEncode(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketDecode(b *testing.B) {
	p := samplePacket()
	p.Payload = make([]byte, 512)
	enc, _ := p.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
