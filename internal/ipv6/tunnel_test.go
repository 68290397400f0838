package ipv6

import (
	"bytes"
	"testing"
)

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := samplePacket()
	ha := MustParseAddr("2001:db8:4::1")
	coa := MustParseAddr("2001:db8:6::beef")
	outer, err := Encapsulate(ha, coa, DefaultHopLimit, inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Hdr.Src != ha || outer.Hdr.Dst != coa || outer.Proto != ProtoIPv6 {
		t.Fatalf("outer header wrong: %+v", outer.Hdr)
	}
	if outer.Inner != inner || outer.Payload != nil {
		t.Fatal("Encapsulate must carry the inner packet itself, not an encoding of it")
	}

	// Encode/decode the outer packet as it would cross links.
	enc, err := outer.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != inner.WireLen()+TunnelOverheadBytes {
		t.Errorf("tunnel overhead = %d, want %d", len(enc)-inner.WireLen(), TunnelOverheadBytes)
	}
	if len(enc) != outer.WireLen() {
		t.Errorf("WireLen %d, encoding %d bytes", outer.WireLen(), len(enc))
	}
	// The link decodes against the sent packet: the inner packet comes
	// back parsed, its payload shared with the tunnel entry's.
	back, _, err := DecodeShared(enc, outer)
	if err != nil {
		t.Fatal(err)
	}
	got, hops, err := Decapsulate(back)
	if err != nil {
		t.Fatal(err)
	}
	if got != back.Inner || back.Payload != nil || hops != 0 {
		t.Error("decoded tunnel packet must hold its body as Inner, and Decapsulate return it with count 0")
	}
	if &got.Payload[0] != &inner.Payload[0] {
		t.Error("inner payload copied instead of shared with the tunnel entry's")
	}
	if got.Hdr.Src != inner.Hdr.Src || got.Hdr.Dst != inner.Hdr.Dst {
		t.Error("inner addresses mangled through tunnel")
	}
	if got.Hdr.HopLimit != inner.Hdr.HopLimit {
		t.Error("inner hop limit modified inside tunnel (violates RFC 2473 §3.1)")
	}
	if !bytes.Equal(got.Payload, inner.Payload) {
		t.Error("inner payload mangled")
	}
}

func TestDecapsulateRejectsNonTunnel(t *testing.T) {
	if _, _, err := Decapsulate(samplePacket()); err == nil {
		t.Fatal("decapsulated a UDP packet")
	}
	bad := &Packet{Hdr: Header{HopLimit: 1}, Proto: ProtoIPv6, Payload: []byte{1, 2, 3}}
	if _, _, err := Decapsulate(bad); err == nil {
		t.Fatal("decapsulated garbage inner bytes")
	}
	huge := samplePacket()
	huge.Payload = make([]byte, 0xffff)
	if _, err := Encapsulate(huge.Hdr.Src, huge.Hdr.Dst, 64, huge); err == nil {
		t.Fatal("encapsulated an inner packet too large for the outer payload")
	}
}

func TestNestedTunnelDepth(t *testing.T) {
	p := samplePacket()
	if _, _, err := Decapsulate(p); err == nil {
		t.Error("decapsulated a plain packet")
	}
	a := MustParseAddr("2001:db8::1")
	b := MustParseAddr("2001:db8::2")
	one, err := EncapsulateHops(a, b, 64, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Encapsulate(b, a, 64, one)
	if err != nil {
		t.Fatal(err)
	}
	mid, hops, err := Decapsulate(two)
	if err != nil || mid != one || hops != 0 {
		t.Fatalf("outer layer unwraps to %p with count %d (err %v), want %p with 0", mid, hops, err, one)
	}
	in, hops, err := Decapsulate(mid)
	if err != nil || in != p || hops != 2 {
		t.Errorf("inner layer unwraps to %p with count %d (err %v), want the original packet with 2", in, hops, err)
	}
	if s := two.String(); s == "" {
		t.Error("empty String() for a tunnel packet")
	}
}

// BenchmarkTunnelRoundTrip prices one tunnel leg as a link runs it: the
// entry encapsulates, the link encodes into a reused frame buffer and
// decodes against the sent packet, and the exit decapsulates.
func BenchmarkTunnelRoundTrip(b *testing.B) {
	inner := samplePacket()
	inner.Payload = make([]byte, 264)
	src := MustParseAddr("2001:db8:4::1")
	dst := MustParseAddr("2001:db8:6::beef")
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outer, err := Encapsulate(src, dst, DefaultHopLimit, inner)
		if err != nil {
			b.Fatal(err)
		}
		if frame, err = outer.EncodeAppend(frame[:0]); err != nil {
			b.Fatal(err)
		}
		got, _, err := DecodeShared(frame, outer)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := Decapsulate(got); err != nil {
			b.Fatal(err)
		}
	}
}
