package pimdm

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mip6mcast/internal/ipv6"
)

// FuzzPIM feeds arbitrary bytes under an arbitrary pseudo-header to the PIM
// codec both engines speak: Hello, Join/Prune, Graft, Graft-Ack, Assert and
// State Refresh, and HPIM-DM's Interest, NoInterest and DeclAck.
// Properties: parsing never panics, and parse → marshal → parse is a fixed
// point: what parses marshals, the marshalled message parses to the same
// value, and that value marshals to the same bytes. (Parse drops what it
// does not keep, such as reserved bits and unknown Hello options, so the
// first marshal need not give back the input.) With fix set, the checksum
// field is recomputed first, so the search gets past the checksum into the
// message bodies. `go test` runs the seed corpus in testdata/fuzz/FuzzPIM
// (one message of each type); run `go test -fuzz FuzzPIM ./internal/pimdm`
// to search.
func FuzzPIM(f *testing.F) {
	f.Fuzz(func(t *testing.T, srcb, dstb, b []byte, fix bool) {
		var src, dst ipv6.Addr
		copy(src[:], srcb)
		copy(dst[:], dstb)
		if fix && len(b) >= 4 {
			b = append([]byte(nil), b...)
			b[2], b[3] = 0, 0
			binary.BigEndian.PutUint16(b[2:4], ipv6.Checksum(src, dst, ipv6.ProtoPIM, b))
		}
		m, err := Parse(src, dst, b)
		if err != nil {
			return
		}
		enc, err := Marshal(src, dst, m)
		if err != nil {
			t.Fatalf("parsed %T %+v does not marshal: %v", m, m, err)
		}
		again, err := Parse(src, dst, enc)
		if err != nil {
			t.Fatalf("marshalled %T %x does not parse: %v", m, enc, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("%T changed through marshal:\n first %+v\nsecond %+v", m, m, again)
		}
		if enc2, err := Marshal(src, dst, again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("%T marshals to %x, then %x (err %v)", m, enc, enc2, err)
		}
	})
}
