package ipv6

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBindingUpdateRoundtrip(t *testing.T) {
	alt := MustParseAddr("2001:db8:6::1")
	cases := []*BindingUpdate{
		{},
		{Ack: true, Sequence: 1, Lifetime: 100},
		{HomeReg: true, PrefixLen: 64, Sequence: 0xffff, Lifetime: 0xffffffff},
		{Ack: true, HomeReg: true, AltCareOf: &alt},
		{HomeReg: true, GroupList: []Addr{MustParseAddr("ff0e::101")}},
		{
			Ack: true, HomeReg: true, Sequence: 42, Lifetime: 256,
			AltCareOf: &alt,
			GroupList: []Addr{MustParseAddr("ff0e::101"), MustParseAddr("ff0e::202"), MustParseAddr("ff05::3:7")},
		},
	}
	for i, bu := range cases {
		if i == 1 {
			bu.SetUniqueID(0xbeef)
		}
		opt, err := bu.Marshal()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := ParseBindingUpdate(opt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, bu) {
			t.Errorf("case %d: roundtrip %+v != %+v", i, got, bu)
		}
	}
}

func TestBindingUpdateGroupListRequiresHomeReg(t *testing.T) {
	bu := &BindingUpdate{GroupList: []Addr{MustParseAddr("ff0e::1")}}
	if _, err := bu.Marshal(); err == nil {
		t.Fatal("Marshal accepted group list without H flag")
	}
	// And on the parse side: hand-craft flags=0 with a group-list sub-option.
	data := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	sub, _ := MarshalGroupListSubOption([]Addr{MustParseAddr("ff0e::1")})
	data = append(data, sub...)
	if _, err := ParseBindingUpdate(Option{Type: OptBindingUpdate, Data: data}); err == nil {
		t.Fatal("Parse accepted group list without H flag")
	}
}

// TestGroupListSubOptionGoldenBytes pins the exact Figure 5 wire format:
// Sub-Option Type, Sub-Option Len = 16*N, then N 16-byte group addresses.
func TestGroupListSubOptionGoldenBytes(t *testing.T) {
	g1 := MustParseAddr("ff0e::101")
	g2 := MustParseAddr("ff05:1234:5678:9abc:def0:1122:3344:5566")
	sub, err := MarshalGroupListSubOption([]Addr{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		SubOptMulticastGroupList, 32, // type, len = 16*2
		// ff0e::101
		0xff, 0x0e, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x01,
		// ff05:1234:5678:9abc:def0:1122:3344:5566
		0xff, 0x05, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc,
		0xde, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
	}
	if !bytes.Equal(sub, want) {
		t.Fatalf("golden mismatch:\n got %x\nwant %x", sub, want)
	}
}

func TestGroupListSubOptionEmpty(t *testing.T) {
	sub, err := MarshalGroupListSubOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, []byte{SubOptMulticastGroupList, 0}) {
		t.Fatalf("empty group list = %x", sub)
	}
}

func TestGroupListSubOptionLimits(t *testing.T) {
	// 15 groups = 240 bytes fits in the 1-byte length; 16 = 256 does not.
	mk := func(n int) []Addr {
		gs := make([]Addr, n)
		for i := range gs {
			gs[i] = MustParseAddr("ff0e::1").WithInterfaceID(uint64(i + 1))
			gs[i][0] = 0xff // keep multicast after WithInterfaceID
			gs[i][1] = 0x0e
		}
		return gs
	}
	if _, err := MarshalGroupListSubOption(mk(15)); err != nil {
		t.Errorf("15 groups rejected: %v", err)
	}
	if _, err := MarshalGroupListSubOption(mk(16)); err == nil {
		t.Error("16 groups accepted but cannot fit length field")
	}
}

func TestGroupListRejectsUnicast(t *testing.T) {
	if _, err := MarshalGroupListSubOption([]Addr{MustParseAddr("2001:db8::1")}); err == nil {
		t.Error("Marshal accepted unicast group address")
	}
	body := make([]byte, 16) // all-zero "group"
	if _, err := parseGroupListBody(body); err == nil {
		t.Error("Parse accepted unicast group address")
	}
	if _, err := parseGroupListBody(make([]byte, 17)); err == nil {
		t.Error("Parse accepted non-multiple-of-16 body")
	}
}

func TestGroupListCapacity(t *testing.T) {
	mk := func(n int) []Addr {
		gs := make([]Addr, n)
		for i := range gs {
			gs[i] = MustParseAddr("ff0e::")
			gs[i][14] = byte(i >> 8)
			gs[i][15] = byte(i)
		}
		return gs
	}
	// 15 groups: fits, and survives a full packet encode (the 255-byte
	// IPv6 option limit is the binding constraint).
	bu := &BindingUpdate{HomeReg: true, GroupList: mk(GroupListCapacity)}
	opt, err := bu.Marshal()
	if err != nil {
		t.Fatalf("capacity list rejected: %v", err)
	}
	p := samplePacket()
	p.Ext = &Ext{DestOpts: []Option{opt}}
	wire, err := p.Encode()
	if err != nil {
		t.Fatalf("capacity list does not fit a packet: %v", err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBindingUpdate(back.DestOpts()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.GroupList) != GroupListCapacity {
		t.Fatalf("roundtrip lost groups: %d", len(got.GroupList))
	}
	// 16 groups: a hard limit of the Figure 5 mechanism.
	if _, err := (&BindingUpdate{HomeReg: true, GroupList: mk(16)}).Marshal(); err == nil {
		t.Fatal("over-capacity group list accepted")
	}
}

func TestGroupListParseConcatenatesSubOptions(t *testing.T) {
	// Be liberal on receive: multiple Group List sub-options concatenate.
	g1 := MustParseAddr("ff0e::1")
	g2 := MustParseAddr("ff0e::2")
	data := []byte{buFlagHomeReg, 0, 0, 0, 0, 0, 0, 0}
	s1, _ := MarshalGroupListSubOption([]Addr{g1})
	s2, _ := MarshalGroupListSubOption([]Addr{g2})
	data = append(data, s1...)
	data = append(data, s2...)
	got, err := ParseBindingUpdate(Option{Type: OptBindingUpdate, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.GroupList) != 2 || got.GroupList[0] != g1 || got.GroupList[1] != g2 {
		t.Fatalf("concatenation = %v", got.GroupList)
	}
}

func TestGroupListExplicitClear(t *testing.T) {
	bu := &BindingUpdate{HomeReg: true, GroupList: []Addr{}}
	opt, err := bu.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBindingUpdate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.GroupList == nil || len(got.GroupList) != 0 {
		t.Fatalf("empty list did not roundtrip as explicit clear: %v", got.GroupList)
	}
	// And absence stays absent.
	bu2 := &BindingUpdate{HomeReg: true}
	got2, err := ParseBindingUpdate(mustMarshal(t, bu2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.GroupList != nil {
		t.Fatal("absent list parsed as present")
	}
}

func mustMarshal(t *testing.T, bu *BindingUpdate) Option {
	t.Helper()
	opt, err := bu.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func TestBindingUpdateRejectsMalformed(t *testing.T) {
	cases := map[string]Option{
		"wrong type":     {Type: OptBindingAck, Data: make([]byte, 8)},
		"truncated":      {Type: OptBindingUpdate, Data: make([]byte, 5)},
		"sub trunc":      {Type: OptBindingUpdate, Data: append(make([]byte, 8), SubOptUniqueID)},
		"sub overrun":    {Type: OptBindingUpdate, Data: append(make([]byte, 8), SubOptUniqueID, 99, 0)},
		"bad uid len":    {Type: OptBindingUpdate, Data: append(make([]byte, 8), SubOptUniqueID, 3, 0, 0, 0)},
		"bad altcoa len": {Type: OptBindingUpdate, Data: append(make([]byte, 8), SubOptAltCareOf, 2, 0, 0)},
		"unknown sub":    {Type: OptBindingUpdate, Data: append(make([]byte, 8), 99, 1, 0)},
	}
	for name, o := range cases {
		if _, err := ParseBindingUpdate(o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBindingAckRoundtrip(t *testing.T) {
	ba := &BindingAck{Status: BindingAckAccepted, Sequence: 9, Lifetime: 256, Refresh: 128}
	got, err := ParseBindingAck(ba.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ba {
		t.Errorf("roundtrip %+v != %+v", got, ba)
	}
	if _, err := ParseBindingAck(Option{Type: OptBindingAck, Data: make([]byte, 5)}); err == nil {
		t.Error("accepted short binding ack")
	}
	if _, err := ParseBindingAck(Option{Type: OptBindingUpdate}); err == nil {
		t.Error("accepted wrong option type")
	}
}

func TestBindingRequestRoundtrip(t *testing.T) {
	if _, err := ParseBindingRequest(BindingRequest{}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBindingRequest(Option{Type: OptBindingReq, Data: []byte{1}}); err == nil {
		t.Error("accepted binding request with data")
	}
	if _, err := ParseBindingRequest(Option{Type: OptBindingAck}); err == nil {
		t.Error("accepted wrong option type")
	}
}

func TestHomeAddressRoundtrip(t *testing.T) {
	h := &HomeAddressOption{HomeAddress: MustParseAddr("2001:db8:4::44")}
	got, err := ParseHomeAddress(h.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.HomeAddress != h.HomeAddress {
		t.Errorf("roundtrip %s != %s", got.HomeAddress, h.HomeAddress)
	}
	if _, err := ParseHomeAddress(Option{Type: OptHomeAddress, Data: make([]byte, 15)}); err == nil {
		t.Error("accepted short home address option")
	}
	if _, err := ParseHomeAddress(Option{Type: OptBindingReq}); err == nil {
		t.Error("accepted wrong option type")
	}
}

// Property: binding updates with arbitrary field values roundtrip through a
// full packet encode/decode.
func TestQuickBindingUpdateThroughPacket(t *testing.T) {
	f := func(seq uint16, life uint32, nGroups uint8, tail [16]byte) bool {
		n := int(nGroups % 8)
		groups := make([]Addr, n)
		for i := range groups {
			groups[i] = Addr(tail)
			groups[i][0] = 0xff
			groups[i][15] = byte(i)
		}
		bu := &BindingUpdate{HomeReg: true, Ack: true, Sequence: seq, Lifetime: life}
		if n > 0 {
			bu.GroupList = groups
		}
		opt, err := bu.Marshal()
		if err != nil {
			return false
		}
		p := samplePacket()
		p.Ext = &Ext{DestOpts: []Option{opt}}
		enc, err := p.Encode()
		if err != nil {
			return false
		}
		q, err := Decode(enc)
		if err != nil {
			return false
		}
		got, err := ParseBindingUpdate(q.DestOpts()[0])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, bu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGroupListSubOption(b *testing.B) {
	groups := []Addr{
		MustParseAddr("ff0e::101"), MustParseAddr("ff0e::102"),
		MustParseAddr("ff0e::103"), MustParseAddr("ff0e::104"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sub, err := MarshalGroupListSubOption(groups)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := parseGroupListBody(sub[2:]); err != nil {
			b.Fatal(err)
		}
	}
}
