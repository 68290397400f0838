package icmpv6

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mip6mcast/internal/ipv6"
)

// FuzzICMPv6 feeds arbitrary bytes under an arbitrary pseudo-header to the
// value parser. Properties: parsing never panics, and any message that
// parses re-marshals, under the same pseudo-header, to exactly the bytes it
// came from. With fix set, the checksum field is recomputed first, so the
// search gets past the checksum into the message bodies. `go test` runs the
// seed corpus in testdata/fuzz/FuzzICMPv6 (RS, RA with one prefix and with
// more options than a RouterAdvert holds, MLD Query/Report/Done, PTB); run
// `go test -fuzz FuzzICMPv6 ./internal/icmpv6` to search.
func FuzzICMPv6(f *testing.F) {
	f.Fuzz(func(t *testing.T, srcb, dstb, b []byte, fix bool) {
		var src, dst ipv6.Addr
		copy(src[:], srcb)
		copy(dst[:], dstb)
		if fix && len(b) >= HeaderLen {
			b = append([]byte(nil), b...)
			b[2], b[3] = 0, 0
			binary.BigEndian.PutUint16(b[2:4], ipv6.Checksum(src, dst, ipv6.ProtoICMPv6, b))
		}
		m, err := Parse(src, dst, b)
		if err != nil {
			return
		}
		if got := Marshal(src, dst, message(m)); !bytes.Equal(got, b) {
			t.Fatalf("type %d parsed from %x re-marshals to %x", m.Type, b, got)
		}
	})
}

// message returns the Message a parsed Msg holds.
func message(m Msg) Message {
	switch m.Type {
	case TypeMLDQuery, TypeMLDReport, TypeMLDDone:
		return m.MLD
	case TypeRouterSolicit:
		return m.RS
	case TypeRouterAdvert:
		return m.RA
	}
	return m.PTB
}
