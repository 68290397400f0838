package ipv6

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Option is a TLV option inside a Hop-by-Hop or Destination Options
// extension header (RFC 2460 §4.2). Typed options (Router Alert, the Mobile
// IPv6 options) provide Marshal/Parse pairs producing/consuming Option.
type Option struct {
	Type byte
	Data []byte
}

// Option type codes used in this system.
const (
	OptPad1        byte = 0x00
	OptPadN        byte = 0x01
	OptRouterAlert byte = 0x05 // RFC 2711; carried by MLD messages
	// Mobile IPv6 destination options (draft-ietf-mobileip-ipv6 numbering).
	OptBindingUpdate byte = 0xC6
	OptBindingAck    byte = 0x07
	OptBindingReq    byte = 0x08
	OptHomeAddress   byte = 0xC9
)

// Router Alert values (RFC 2711 §2.1).
const (
	RouterAlertMLD uint16 = 0 // Datagram contains a Multicast Listener Discovery message.
)

// RouterAlertOption builds a Router Alert option with the given value.
func RouterAlertOption(value uint16) Option {
	var d [2]byte
	binary.BigEndian.PutUint16(d[:], value)
	return Option{Type: OptRouterAlert, Data: d[:]}
}

// FindOption returns the first option with the given type, or false.
func FindOption(opts []Option, typ byte) (Option, bool) {
	for _, o := range opts {
		if o.Type == typ {
			return o, true
		}
	}
	return Option{}, false
}

// marshalOptions encodes an options extension header (HBH or DestOpts):
// NextHeader, HdrExtLen, then options padded to a multiple of 8 octets. It
// writes straight into b.
func marshalOptions(b []byte, next uint8, opts []Option) ([]byte, error) {
	start := len(b)
	b = append(b, next, 0)
	for _, o := range opts {
		if o.Type == OptPad1 {
			b = append(b, OptPad1)
			continue
		}
		if len(o.Data) > 255 {
			return nil, fmt.Errorf("ipv6: option %#x data too long (%d)", o.Type, len(o.Data))
		}
		b = append(b, o.Type, byte(len(o.Data)))
		b = append(b, o.Data...)
	}
	// Pad to multiple of 8.
	switch rem := (len(b) - start) % 8; {
	case rem == 0:
	case 8-rem == 1:
		b = append(b, OptPad1)
	default:
		pad := 8 - rem // >= 2
		b = append(b, OptPadN, byte(pad-2))
		for i := 0; i < pad-2; i++ {
			b = append(b, 0)
		}
	}
	size := len(b) - start
	if size/8-1 > 255 {
		return nil, fmt.Errorf("ipv6: options header too long (%d bytes)", size)
	}
	b[start+1] = byte(size/8 - 1)
	return b, nil
}

// unmarshalOptions parses an options extension header from the front of b,
// returning the contained options (padding stripped; non-nil even when
// there are none), the NextHeader value, and the number of bytes consumed.
// When the options equal hint's, type for type and byte for byte, the result
// is hint itself; otherwise it is a new slice whose data is copied out of b.
func unmarshalOptions(b []byte, hint []Option) (opts []Option, next uint8, n int, err error) {
	if len(b) < 8 {
		return nil, 0, 0, fmt.Errorf("ipv6: options header truncated")
	}
	next = b[0]
	n = (int(b[1]) + 1) * 8
	if len(b) < n {
		return nil, 0, 0, fmt.Errorf("ipv6: options header len %d exceeds %d available", n, len(b))
	}
	body := b[2:n]
	count, size, same := 0, 0, hint != nil
	for i := 0; i < len(body); {
		t := body[i]
		if t == OptPad1 {
			i++
			continue
		}
		if i+1 >= len(body) {
			return nil, 0, 0, fmt.Errorf("ipv6: option %#x missing length", t)
		}
		l := int(body[i+1])
		if i+2+l > len(body) {
			return nil, 0, 0, fmt.Errorf("ipv6: option %#x overruns header", t)
		}
		if t != OptPadN {
			same = same && count < len(hint) && hint[count].Type == t && bytes.Equal(hint[count].Data, body[i+2:i+2+l])
			count++
			size += l
		}
		i += 2 + l
	}
	if same && count == len(hint) {
		return hint, next, n, nil
	}
	opts = make([]Option, 0, count)
	data := make([]byte, 0, size)
	for i := 0; i < len(body); {
		t := body[i]
		if t == OptPad1 {
			i++
			continue
		}
		l := int(body[i+1])
		if t != OptPadN {
			start := len(data)
			data = append(data, body[i+2:i+2+l]...)
			opts = append(opts, Option{Type: t, Data: data[start:len(data):len(data)]})
		}
		i += 2 + l
	}
	return opts, next, n, nil
}

// RoutingHeader is a type 0 routing header (RFC 2460 §4.4). Mobile IPv6 uses
// it to route packets via a care-of address with the home address as final
// destination.
type RoutingHeader struct {
	SegmentsLeft uint8
	Addresses    []Addr
}

func (r *RoutingHeader) marshal(b []byte, next uint8) ([]byte, error) {
	if len(r.Addresses) > 127 {
		return nil, fmt.Errorf("ipv6: routing header with %d addresses", len(r.Addresses))
	}
	b = append(b, next, byte(len(r.Addresses)*2), 0 /* type 0 */, r.SegmentsLeft, 0, 0, 0, 0)
	for _, a := range r.Addresses {
		b = append(b, a[:]...)
	}
	return b, nil
}

// unmarshalRouting parses a type 0 routing header from the front of b. When
// it equals hint, the result is hint itself.
func unmarshalRouting(b []byte, hint *RoutingHeader) (r *RoutingHeader, next uint8, n int, err error) {
	if len(b) < 8 {
		return nil, 0, 0, fmt.Errorf("ipv6: routing header truncated")
	}
	next = b[0]
	n = (int(b[1]) + 1) * 8
	if len(b) < n {
		return nil, 0, 0, fmt.Errorf("ipv6: routing header len %d exceeds available", n)
	}
	if b[2] != 0 {
		return nil, 0, 0, fmt.Errorf("ipv6: unsupported routing type %d", b[2])
	}
	if int(b[1])%2 != 0 {
		return nil, 0, 0, fmt.Errorf("ipv6: routing type 0 with odd hdr ext len")
	}
	segs, count := b[3], int(b[1])/2
	if segs > uint8(count) {
		return nil, 0, 0, fmt.Errorf("ipv6: segments left %d > %d addresses", segs, count)
	}
	addrs := b[8:n]
	if hint != nil && hint.SegmentsLeft == segs && len(hint.Addresses) == count {
		same := true
		for i, a := range hint.Addresses {
			same = same && a == Addr(addrs[16*i:16*(i+1)])
		}
		if same {
			return hint, next, n, nil
		}
	}
	r = &RoutingHeader{SegmentsLeft: segs}
	if count > 0 {
		r.Addresses = make([]Addr, count)
		for i := range r.Addresses {
			r.Addresses[i] = Addr(addrs[16*i : 16*(i+1)])
		}
	}
	return r, next, n, nil
}

// FragmentHeader is the IPv6 fragment header (RFC 2460 §4.5). The simulator
// never fragments (links carry whole datagrams), but the codec is complete so
// parsers reject nothing legal.
type FragmentHeader struct {
	Offset uint16 // in 8-octet units
	More   bool
	ID     uint32
}

func (f *FragmentHeader) marshal(b []byte, next uint8) []byte {
	var w [8]byte
	w[0] = next
	off := f.Offset << 3
	if f.More {
		off |= 1
	}
	binary.BigEndian.PutUint16(w[2:4], off)
	binary.BigEndian.PutUint32(w[4:8], f.ID)
	return append(b, w[:]...)
}

// unmarshalFragment parses a fragment header from the front of b. When it
// equals hint, the result is hint itself.
func unmarshalFragment(b []byte, hint *FragmentHeader) (f *FragmentHeader, next uint8, n int, err error) {
	if len(b) < 8 {
		return nil, 0, 0, fmt.Errorf("ipv6: fragment header truncated")
	}
	off := binary.BigEndian.Uint16(b[2:4])
	h := FragmentHeader{
		Offset: off >> 3,
		More:   off&1 != 0,
		ID:     binary.BigEndian.Uint32(b[4:8]),
	}
	if hint != nil && *hint == h {
		return hint, b[0], 8, nil
	}
	f = new(FragmentHeader)
	*f = h
	return f, b[0], 8, nil
}
