package ipv6

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the datagram decoder. Properties:
// decoding never panics; a decoded packet re-encodes; the re-encoding is a
// fixed point (decode, encode again, same bytes), whether it is decoded
// alone or against the packet it came from; and decoding against that
// packet keeps nothing of the frame. `go test` runs the seeds; run
// `go test -fuzz FuzzDecode ./internal/ipv6` to search.
func FuzzDecode(f *testing.F) {
	// Every extension header kind but the fragment header, with option data.
	rich := samplePacket()
	rich.Hdr.Dst = MustParseAddr("2001:db8:6::1")
	rich.HopByHop = []Option{RouterAlertOption(RouterAlertMLD)}
	rich.Routing = &RoutingHeader{SegmentsLeft: 1, Addresses: []Addr{MustParseAddr("2001:db8:4::9")}}
	rich.DestOpts = []Option{{Type: OptHomeAddress, Data: bytes.Repeat([]byte{0xab}, 16)}}
	frag := samplePacket()
	frag.Fragment = &FragmentHeader{Offset: 3, More: true, ID: 9}
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
		withOpts.DestOpts = []Option{{Type: 0x1e, Data: []byte{1, 2, 3}}}
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
			q, err := DecodeShared(frame, hint)
			if err != nil {
				t.Fatalf("re-encoding does not decode: %v", err)
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
		}
		if TunnelDepth(p) > 0 && Innermost(p) == p {
			t.Fatal("tunnel packet with depth > 0 is its own innermost packet")
		}
	})
}
