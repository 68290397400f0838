package ipv6

import (
	"encoding/binary"
	"fmt"
)

// Mobile IPv6 (draft-ietf-mobileip-ipv6-10) defines four new IPv6
// destination options: Binding Update, Binding Acknowledgement, Binding
// Request and Home Address. This file implements their wire formats, the two
// sub-options the draft defines (Unique Identifier, Alternate Care-of
// Address), and the Multicast Group List sub-option that the paper proposes
// in its Figure 5 for carrying multicast group membership to the home agent.

// Sub-option type codes inside Binding Update options.
const (
	SubOptUniqueID           byte = 1
	SubOptAltCareOf          byte = 2
	SubOptMulticastGroupList byte = 3 // the paper's proposal (Fig. 5)
)

// BindingUpdate is sent by a mobile node to register its current care-of
// address with its home agent (and, in full Mobile IPv6, with correspondent
// nodes). Wire layout used here, after the option type/len bytes:
//
//	flags(1) prefixLen(1) sequence(2) lifetime(4) sub-options...
type BindingUpdate struct {
	Ack       bool // A: acknowledgement requested
	HomeReg   bool // H: home registration (required for the group-list sub-option)
	PrefixLen uint8
	Sequence  uint16
	Lifetime  uint32 // seconds; 0 requests deletion of the binding

	// Sub-options.
	UniqueID    uint16 // 0 = absent
	AltCareOf   *Addr  // nil = absent
	GroupList   []Addr // Multicast Group List sub-option; nil = absent
	hasUniqueID bool
}

const (
	buFlagAck     = 0x80
	buFlagHomeReg = 0x40
)

// SetUniqueID includes a Unique Identifier sub-option.
func (b *BindingUpdate) SetUniqueID(id uint16) {
	b.UniqueID = id
	b.hasUniqueID = true
}

// Marshal renders the Binding Update as a destination option.
func (b *BindingUpdate) Marshal() (Option, error) {
	var flags byte
	if b.Ack {
		flags |= buFlagAck
	}
	if b.HomeReg {
		flags |= buFlagHomeReg
	}
	data := []byte{flags, b.PrefixLen, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(data[2:4], b.Sequence)
	binary.BigEndian.PutUint32(data[4:8], b.Lifetime)
	if b.hasUniqueID {
		var v [2]byte
		binary.BigEndian.PutUint16(v[:], b.UniqueID)
		data = append(data, SubOptUniqueID, 2, v[0], v[1])
	}
	if b.AltCareOf != nil {
		data = append(data, SubOptAltCareOf, 16)
		data = append(data, b.AltCareOf[:]...)
	}
	if b.GroupList != nil {
		if !b.HomeReg {
			return Option{}, fmt.Errorf("ipv6: Multicast Group List sub-option requires home registration (H) set")
		}
		if len(b.GroupList) > GroupListCapacity {
			// A hard limit of the paper's Figure 5 mechanism: the 8-bit
			// Sub-Option Len caps one sub-option at 15 groups, and the
			// 8-bit IPv6 option length caps the whole Binding Update
			// option at one such sub-option anyway. Registrations beyond
			// this must use another mechanism (e.g. tunneled MLD).
			return Option{}, fmt.Errorf("ipv6: %d groups exceed the Multicast Group List capacity of %d per binding update",
				len(b.GroupList), GroupListCapacity)
		}
		sub, err := MarshalGroupListSubOption(b.GroupList)
		if err != nil {
			return Option{}, err
		}
		data = append(data, sub...)
	}
	return Option{Type: OptBindingUpdate, Data: data}, nil
}

// ParseBindingUpdate decodes a Binding Update destination option.
func ParseBindingUpdate(o Option) (*BindingUpdate, error) {
	if o.Type != OptBindingUpdate {
		return nil, fmt.Errorf("ipv6: option type %#x is not a binding update", o.Type)
	}
	if len(o.Data) < 8 {
		return nil, fmt.Errorf("ipv6: binding update truncated: %d bytes", len(o.Data))
	}
	b := &BindingUpdate{
		Ack:       o.Data[0]&buFlagAck != 0,
		HomeReg:   o.Data[0]&buFlagHomeReg != 0,
		PrefixLen: o.Data[1],
		Sequence:  binary.BigEndian.Uint16(o.Data[2:4]),
		Lifetime:  binary.BigEndian.Uint32(o.Data[4:8]),
	}
	subs := o.Data[8:]
	for i := 0; i < len(subs); {
		if i+2 > len(subs) {
			return nil, fmt.Errorf("ipv6: binding update sub-option truncated")
		}
		t, l := subs[i], int(subs[i+1])
		if i+2+l > len(subs) {
			return nil, fmt.Errorf("ipv6: binding update sub-option %d overruns", t)
		}
		body := subs[i+2 : i+2+l]
		switch t {
		case SubOptUniqueID:
			if l != 2 {
				return nil, fmt.Errorf("ipv6: unique id sub-option len %d, want 2", l)
			}
			b.SetUniqueID(binary.BigEndian.Uint16(body))
		case SubOptAltCareOf:
			if l != 16 {
				return nil, fmt.Errorf("ipv6: alternate care-of sub-option len %d, want 16", l)
			}
			var a Addr
			copy(a[:], body)
			b.AltCareOf = &a
		case SubOptMulticastGroupList:
			groups, err := parseGroupListBody(body)
			if err != nil {
				return nil, err
			}
			if !b.HomeReg {
				return nil, fmt.Errorf("ipv6: Multicast Group List sub-option in non-home-registration binding update")
			}
			if b.GroupList == nil {
				b.GroupList = groups
			} else {
				// Several sub-options concatenate (lists longer than the
				// 15 groups one Figure 5 sub-option can carry).
				b.GroupList = append(b.GroupList, groups...)
			}
		default:
			return nil, fmt.Errorf("ipv6: unknown binding update sub-option %d", t)
		}
		i += 2 + l
	}
	return b, nil
}

// GroupListCapacity is the paper's Figure 5 capacity: the 8-bit Sub-Option
// Len holds 16·N, so one sub-option carries at most 15 group addresses —
// and the 8-bit length of the enclosing IPv6 destination option leaves
// room for exactly one full sub-option per Binding Update.
const GroupListCapacity = 15

// MarshalGroupListSubOption encodes the paper's Multicast Group List
// sub-option exactly per its Figure 5: Sub-Option Type, Sub-Option Len =
// 16·N, then N 16-byte multicast group addresses.
func MarshalGroupListSubOption(groups []Addr) ([]byte, error) {
	if len(groups)*16 > 255 {
		return nil, fmt.Errorf("ipv6: group list of %d addresses exceeds sub-option length field", len(groups))
	}
	out := make([]byte, 0, 2+16*len(groups))
	out = append(out, SubOptMulticastGroupList, byte(16*len(groups)))
	for _, g := range groups {
		if !g.IsMulticast() {
			return nil, fmt.Errorf("ipv6: %s in group list is not a multicast address", g)
		}
		out = append(out, g[:]...)
	}
	return out, nil
}

func parseGroupListBody(body []byte) ([]Addr, error) {
	if len(body)%16 != 0 {
		return nil, fmt.Errorf("ipv6: group list sub-option len %d not a multiple of 16", len(body))
	}
	groups := make([]Addr, 0, len(body)/16)
	for i := 0; i < len(body); i += 16 {
		var g Addr
		copy(g[:], body[i:i+16])
		if !g.IsMulticast() {
			return nil, fmt.Errorf("ipv6: group list entry %s is not multicast", g)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// Binding Acknowledgement status codes (draft §5.2).
const (
	BindingAckAccepted        uint8 = 0
	BindingAckReasonUnspec    uint8 = 128
	BindingAckAdminProhibited uint8 = 130
	BindingAckInsufficient    uint8 = 131
	BindingAckNotHomeSubnet   uint8 = 133
)

// BindingAck acknowledges a Binding Update. Layout: status(1) sequence(2)
// lifetime(4) refresh(4).
type BindingAck struct {
	Status   uint8
	Sequence uint16
	Lifetime uint32 // granted lifetime, seconds
	Refresh  uint32 // recommended refresh interval, seconds
}

// Marshal renders the Binding Acknowledgement as a destination option.
func (b *BindingAck) Marshal() Option {
	data := make([]byte, 11)
	data[0] = b.Status
	binary.BigEndian.PutUint16(data[1:3], b.Sequence)
	binary.BigEndian.PutUint32(data[3:7], b.Lifetime)
	binary.BigEndian.PutUint32(data[7:11], b.Refresh)
	return Option{Type: OptBindingAck, Data: data}
}

// ParseBindingAck decodes a Binding Acknowledgement destination option.
func ParseBindingAck(o Option) (*BindingAck, error) {
	if o.Type != OptBindingAck {
		return nil, fmt.Errorf("ipv6: option type %#x is not a binding ack", o.Type)
	}
	if len(o.Data) != 11 {
		return nil, fmt.Errorf("ipv6: binding ack is %d bytes, want 11", len(o.Data))
	}
	return &BindingAck{
		Status:   o.Data[0],
		Sequence: binary.BigEndian.Uint16(o.Data[1:3]),
		Lifetime: binary.BigEndian.Uint32(o.Data[3:7]),
		Refresh:  binary.BigEndian.Uint32(o.Data[7:11]),
	}, nil
}

// BindingRequest asks a mobile node to refresh its binding. It has no data.
type BindingRequest struct{}

// Marshal renders the Binding Request as a destination option.
func (BindingRequest) Marshal() Option { return Option{Type: OptBindingReq} }

// ParseBindingRequest decodes a Binding Request destination option.
func ParseBindingRequest(o Option) (*BindingRequest, error) {
	if o.Type != OptBindingReq {
		return nil, fmt.Errorf("ipv6: option type %#x is not a binding request", o.Type)
	}
	if len(o.Data) != 0 {
		return nil, fmt.Errorf("ipv6: binding request with %d data bytes", len(o.Data))
	}
	return &BindingRequest{}, nil
}

// HomeAddressOption carries the mobile node's home address in packets it
// sends from a care-of address, so correspondents see its stable identity.
type HomeAddressOption struct {
	HomeAddress Addr
}

// Marshal renders the Home Address destination option.
func (h *HomeAddressOption) Marshal() Option {
	return Option{Type: OptHomeAddress, Data: append([]byte(nil), h.HomeAddress[:]...)}
}

// ParseHomeAddress decodes a Home Address destination option.
func ParseHomeAddress(o Option) (*HomeAddressOption, error) {
	if o.Type != OptHomeAddress {
		return nil, fmt.Errorf("ipv6: option type %#x is not a home address option", o.Type)
	}
	if len(o.Data) != 16 {
		return nil, fmt.Errorf("ipv6: home address option is %d bytes, want 16", len(o.Data))
	}
	h := &HomeAddressOption{}
	copy(h.HomeAddress[:], o.Data)
	return h, nil
}
