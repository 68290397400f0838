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
// first marshal need not give back the input.) Marshal's size prediction
// is exact: the buffer it returns is full (len == cap), so a message never
// grows its buffer. With fix set, the checksum field is recomputed first,
// so the search gets past the checksum into the message bodies. `go test`
// runs the seed corpus in testdata/fuzz/FuzzPIM (one message of each
// type); run `go test -fuzz FuzzPIM ./internal/pimdm` to search.
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
		enc, err := Marshal(src, dst, message(&m))
		if err != nil {
			t.Fatalf("parsed type %d %+v does not marshal: %v", m.Type, m, err)
		}
		if len(enc) != cap(enc) {
			t.Fatalf("type %d marshals to %d bytes in a buffer of %d", m.Type, len(enc), cap(enc))
		}
		again, err := Parse(src, dst, enc)
		if err != nil {
			t.Fatalf("marshalled type %d %x does not parse: %v", m.Type, enc, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("type %d changed through marshal:\n first %+v\nsecond %+v", m.Type, m, again)
		}
		if enc2, err := Marshal(src, dst, message(&again)); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("type %d marshals to %x, then %x (err %v)", m.Type, enc, enc2, err)
		}
	})
}

// message returns the Message a parsed Msg holds.
func message(m *Msg) Message {
	switch m.Type {
	case TypeHello:
		return &m.Hello
	case TypeJoinPrune, TypeGraft, TypeGraftAck:
		return &m.JoinPrune
	case TypeAssert:
		return &m.Assert
	case TypeStateRefresh:
		return &m.StateRefresh
	}
	return &m.Decl
}
