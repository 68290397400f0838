package ipv6

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func bigPacket(payloadLen int) *Packet {
	src := MustParseAddr("2001:db8:1::1")
	dst := MustParseAddr("2001:db8:2::2")
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &Packet{
		Hdr:     Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ProtoUDP,
		Payload: payload,
	}
}

func TestFragmentFitsReturnsOriginal(t *testing.T) {
	p := bigPacket(100)
	frags, err := Fragment(p, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0] != p {
		t.Fatalf("small packet was fragmented: %d", len(frags))
	}
}

func TestFragmentSplitsWithinMTU(t *testing.T) {
	p := bigPacket(3000)
	const mtu = 1280
	frags, err := Fragment(p, mtu, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("3040-byte packet in %d fragments at MTU %d", len(frags), mtu)
	}
	for i, f := range frags {
		wire, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) > mtu {
			t.Fatalf("fragment %d is %d bytes > MTU", i, len(wire))
		}
		fh := f.Fragment()
		if fh == nil || fh.ID != 42 {
			t.Fatalf("fragment %d header: %+v", i, fh)
		}
		if fh.More != (i < len(frags)-1) {
			t.Fatalf("fragment %d More flag wrong", i)
		}
		if i > 0 && fh.Offset == 0 {
			t.Fatalf("fragment %d offset zero", i)
		}
	}
}

func TestFragmentRejectsExtensionHeaders(t *testing.T) {
	p := bigPacket(3000)
	p.Ext = &Ext{DestOpts: []Option{{Type: 7, Data: []byte{1}}}}
	if _, err := Fragment(p, 1280, 1); err == nil {
		t.Fatal("fragmented a packet with extension headers")
	}
	if _, err := Fragment(bigPacket(3000), 40, 1); err == nil {
		t.Fatal("fragmented into zero-capacity MTU")
	}
}

func reassembleAll(t *testing.T, frags []*Packet, r *Reassembler) *Packet {
	t.Helper()
	var whole *Packet
	for _, f := range frags {
		// Roundtrip each fragment through the codec, as the wire does.
		wire, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if out := r.Offer(back, 0, 0); out != nil {
			if whole != nil {
				t.Fatal("reassembled twice")
			}
			whole = out
		}
	}
	return whole
}

// A tunnel packet from Encapsulate has no Payload bytes of its own (its
// body is Inner); the tunnel entry must still fragment it, and the
// fragments carry the inner packet with the hop limit it entered the
// tunnel with.
func TestFragmentEncapsulatedPacket(t *testing.T) {
	inner := bigPacket(3000)
	outer, err := EncapsulateHops(MustParseAddr("2001:db8:4::1"), MustParseAddr("2001:db8:6::1"), 64, inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragment(outer, MinMTU, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("%d fragments, want at least 3", len(frags))
	}
	whole := reassembleAll(t, frags, NewReassembler())
	if whole == nil {
		t.Fatal("tunnel packet not reassembled")
	}
	got, hops, err := Decapsulate(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, inner.Payload) || got.Hdr.Dst != inner.Hdr.Dst {
		t.Error("inner packet mangled by tunnel fragmentation")
	}
	if hl := got.Hdr.HopLimit - hops; hl != inner.Hdr.HopLimit-2 {
		t.Errorf("inner packet left the tunnel with hop limit %d, want %d", hl, inner.Hdr.HopLimit-2)
	}
}

func TestReassembleRoundtrip(t *testing.T) {
	for _, size := range []int{1453, 2000, 3000, 8000} {
		p := bigPacket(size)
		frags, err := Fragment(p, 1500, uint32(size))
		if err != nil {
			t.Fatal(err)
		}
		r := NewReassembler()
		whole := reassembleAll(t, frags, r)
		if whole == nil {
			t.Fatalf("size %d: never completed", size)
		}
		if whole.Hdr.Src != p.Hdr.Src || whole.Proto != p.Proto {
			t.Fatalf("size %d: header mangled", size)
		}
		if !bytes.Equal(whole.Payload, p.Payload) {
			t.Fatalf("size %d: payload mangled", size)
		}
		if r.Pending() != 0 {
			t.Fatalf("size %d: %d buffers left", size, r.Pending())
		}
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	p := bigPacket(4000)
	frags, _ := Fragment(p, 1280, 9)
	r := NewReassembler()
	// Reverse order, with a duplicate in the middle.
	var whole *Packet
	order := make([]*Packet, 0, len(frags)+1)
	for i := len(frags) - 1; i >= 0; i-- {
		order = append(order, frags[i])
	}
	order = append(order[:2], append([]*Packet{order[0]}, order[2:]...)...) // dup
	// The fragments crossed three routers: the whole packet carries the
	// hop limit they arrived with.
	for _, f := range order {
		if out := r.Offer(f, 3, 0); out != nil {
			whole = out
		}
	}
	if whole == nil || !bytes.Equal(whole.Payload, p.Payload) {
		t.Fatal("out-of-order reassembly failed")
	}
	if whole.Hdr.HopLimit != p.Hdr.HopLimit-3 {
		t.Errorf("reassembled hop limit %d, want %d", whole.Hdr.HopLimit, p.Hdr.HopLimit-3)
	}
}

func TestReassemblerExpiry(t *testing.T) {
	p := bigPacket(4000)
	frags, _ := Fragment(p, 1280, 9)
	r := NewReassembler()
	r.Offer(frags[0], 0, 0) // one fragment only
	if r.Pending() != 1 {
		t.Fatal("no pending buffer")
	}
	r.Expire(30 * time.Second)
	if r.Pending() != 1 {
		t.Fatal("expired too early")
	}
	r.Expire(61 * time.Second)
	if r.Pending() != 0 || r.Drops != 1 {
		t.Fatalf("pending=%d drops=%d after timeout", r.Pending(), r.Drops)
	}
	// A late final fragment now starts a fresh (incomplete) buffer.
	if out := r.Offer(frags[len(frags)-1], 0, 62*time.Second); out != nil {
		t.Fatal("completed from a fresh buffer with holes")
	}
}

func TestReassemblerIndependentStreams(t *testing.T) {
	a := bigPacket(3000)
	b := bigPacket(3000)
	b.Hdr.Src = MustParseAddr("2001:db8:9::9") // different source, same ID
	fa, _ := Fragment(a, 1280, 5)
	fb, _ := Fragment(b, 1280, 5)
	r := NewReassembler()
	// Interleave.
	done := 0
	for i := range fa {
		if r.Offer(fa[i], 0, 0) != nil {
			done++
		}
		if r.Offer(fb[i], 0, 0) != nil {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("completed %d of 2 interleaved streams", done)
	}
}

// Property: fragment+reassemble is the identity for arbitrary payloads and
// MTUs.
func TestQuickFragmentRoundtrip(t *testing.T) {
	f := func(payload []byte, mtuSel uint16) bool {
		if len(payload) > 20000 {
			payload = payload[:20000]
		}
		mtu := MinMTU + int(mtuSel)%1000
		p := bigPacket(0)
		p.Payload = payload
		frags, err := Fragment(p, mtu, 77)
		if err != nil {
			return false
		}
		r := NewReassembler()
		var whole *Packet
		for _, fr := range frags {
			if out := r.Offer(fr, 0, 0); out != nil {
				whole = out
			}
		}
		if len(frags) == 1 {
			return frags[0] == p
		}
		return whole != nil && bytes.Equal(whole.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
