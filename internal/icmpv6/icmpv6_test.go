package icmpv6

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"mip6mcast/internal/ipv6"
)

var (
	testSrc = ipv6.MustParseAddr("fe80::1")
	testDst = ipv6.AllNodes
	group   = ipv6.MustParseAddr("ff0e::101")
)

func roundtrip(t *testing.T, msg Message) Msg {
	t.Helper()
	b := Marshal(testSrc, testDst, msg)
	got, err := Parse(testSrc, testDst, b)
	if err != nil {
		t.Fatalf("Parse(%T): %v", msg, err)
	}
	if got.Type != msg.Type() {
		t.Fatalf("Parse(%T) gave type %d, want %d", msg, got.Type, msg.Type())
	}
	return got
}

func TestMLDQueryRoundtrip(t *testing.T) {
	q := &MLD{Kind: TypeMLDQuery, MaxResponseDelay: 10 * time.Second}
	got := roundtrip(t, q).MLD
	if got.Kind != TypeMLDQuery || got.MaxResponseDelay != 10*time.Second {
		t.Errorf("roundtrip = %+v", got)
	}
	if !got.IsGeneralQuery() {
		t.Error("query for :: not recognized as General Query")
	}
	spec := &MLD{Kind: TypeMLDQuery, MaxResponseDelay: time.Second, MulticastAddress: group}
	got = roundtrip(t, spec).MLD
	if got.IsGeneralQuery() {
		t.Error("address-specific query claimed to be general")
	}
	if got.MulticastAddress != group {
		t.Errorf("group = %s", got.MulticastAddress)
	}
}

func TestMLDReportAndDoneRoundtrip(t *testing.T) {
	for _, kind := range []uint8{TypeMLDReport, TypeMLDDone} {
		m := &MLD{Kind: kind, MulticastAddress: group}
		got := roundtrip(t, m).MLD
		if got.Kind != kind || got.MulticastAddress != group {
			t.Errorf("kind %d roundtrip = %+v", kind, got)
		}
		if got.MaxResponseDelay != 0 {
			t.Errorf("kind %d carries response delay %v", kind, got.MaxResponseDelay)
		}
	}
}

func TestMLDValidation(t *testing.T) {
	// Report for the unspecified address is invalid.
	b := Marshal(testSrc, testDst, &MLD{Kind: TypeMLDReport})
	if _, err := Parse(testSrc, testDst, b); err == nil {
		t.Error("accepted Report for ::")
	}
	// MLD for a unicast address is invalid.
	b = Marshal(testSrc, testDst, &MLD{Kind: TypeMLDReport, MulticastAddress: ipv6.MustParseAddr("2001:db8::1")})
	if _, err := Parse(testSrc, testDst, b); err == nil {
		t.Error("accepted Report for unicast address")
	}
}

func TestMLDMaxResponseDelayClamps(t *testing.T) {
	q := &MLD{Kind: TypeMLDQuery, MaxResponseDelay: 2 * time.Hour}
	got := roundtrip(t, q).MLD
	if got.MaxResponseDelay != 65535*time.Millisecond {
		t.Errorf("delay = %v, want clamp to 65.535s", got.MaxResponseDelay)
	}
	q = &MLD{Kind: TypeMLDQuery, MaxResponseDelay: -time.Second}
	got = roundtrip(t, q).MLD
	if got.MaxResponseDelay != 0 {
		t.Errorf("negative delay = %v, want 0", got.MaxResponseDelay)
	}
}

func TestChecksumEnforced(t *testing.T) {
	b := Marshal(testSrc, testDst, &MLD{Kind: TypeMLDQuery})
	b[5] ^= 0x01
	if _, err := Parse(testSrc, testDst, b); err == nil {
		t.Fatal("accepted corrupted message")
	}
	// Wrong pseudo-header also fails.
	b = Marshal(testSrc, testDst, &MLD{Kind: TypeMLDQuery})
	if _, err := Parse(testSrc, ipv6.AllRouters, b); err == nil {
		t.Fatal("accepted message under wrong pseudo-header")
	}
}

func TestParseRejectsUnknownAndTruncated(t *testing.T) {
	if _, err := Parse(testSrc, testDst, []byte{1, 2}); err == nil {
		t.Error("accepted 2-byte message")
	}
	// Type 255 with a valid checksum.
	raw := []byte{255, 0, 0, 0}
	ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, raw)
	raw[2], raw[3] = byte(ck>>8), byte(ck)
	if _, err := Parse(testSrc, testDst, raw); err == nil {
		t.Error("accepted unknown type")
	}
}

func TestPacketTooBigRoundtrip(t *testing.T) {
	invoking := make([]byte, 300) // will be truncated to 128
	for i := range invoking {
		invoking[i] = byte(i)
	}
	ptb := &PacketTooBig{MTU: 1280, Invoking: invoking}
	got := roundtrip(t, ptb).PTB
	if got.MTU != 1280 {
		t.Fatalf("mtu = %d", got.MTU)
	}
	if len(got.Invoking) != 128 {
		t.Fatalf("invoking portion %d bytes, want truncation to 128", len(got.Invoking))
	}
	for i, b := range got.Invoking {
		if b != byte(i) {
			t.Fatal("invoking bytes mangled")
		}
	}
	// Short invoking portions pass through whole.
	small := &PacketTooBig{MTU: 1500, Invoking: []byte{1, 2, 3}}
	got = roundtrip(t, small).PTB
	if len(got.Invoking) != 3 {
		t.Fatalf("small invoking = %d bytes", len(got.Invoking))
	}
	// Truncated body rejected.
	raw := []byte{TypePacketTooBig, 0, 0, 0, 0, 0}
	ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, raw)
	raw[2], raw[3] = byte(ck>>8), byte(ck)
	if _, err := Parse(testSrc, testDst, raw); err == nil {
		t.Fatal("accepted truncated packet-too-big")
	}
}

func TestRouterSolicitRoundtrip(t *testing.T) {
	if got := roundtrip(t, &RouterSolicit{}); got.RS.Options != nil {
		t.Fatalf("solicitation grew options: %x", got.RS.Options)
	}
}

func TestRouterAdvertRoundtrip(t *testing.T) {
	ra := &RouterAdvert{
		CurHopLimit:    64,
		Managed:        true,
		RouterLifetime: 1800 * time.Second,
	}
	ra.AddPrefix(PrefixInfo{
		PrefixLen: 64, OnLink: true, Autonomous: true,
		ValidLifetime:     30 * 24 * time.Hour,
		PreferredLifetime: 7 * 24 * time.Hour,
		Prefix:            ipv6.MustParseAddr("2001:db8:6::"),
	})
	ra.AddPrefix(PrefixInfo{
		PrefixLen: 48, OnLink: true,
		ValidLifetime: time.Hour,
		Prefix:        ipv6.MustParseAddr("2001:db8::"),
	})
	got := roundtrip(t, ra).RA
	if got.CurHopLimit != 64 || !got.Managed || got.Other {
		t.Errorf("flags mangled: %+v", got)
	}
	if got.RouterLifetime != 1800*time.Second {
		t.Errorf("lifetime = %v", got.RouterLifetime)
	}
	opts := got.Options()
	if len(opts) != 2 || opts[0].Raw != nil || opts[1].Raw != nil {
		t.Fatalf("options = %+v", opts)
	}
	p := opts[0].Prefix
	if p.Prefix != ipv6.MustParseAddr("2001:db8:6::") || p.PrefixLen != 64 || !p.Autonomous || !p.OnLink {
		t.Errorf("prefix 0 = %+v", p)
	}
	if p.ValidLifetime != 30*24*time.Hour || p.PreferredLifetime != 7*24*time.Hour {
		t.Errorf("prefix 0 lifetimes = %v/%v", p.ValidLifetime, p.PreferredLifetime)
	}
	if opts[1].Prefix.Autonomous {
		t.Error("prefix 1 A flag invented")
	}
}

func TestRouterAdvertNoPrefixes(t *testing.T) {
	got := roundtrip(t, &RouterAdvert{RouterLifetime: time.Minute}).RA
	if len(got.Options()) != 0 {
		t.Errorf("phantom options: %+v", got.Options())
	}
}

func TestRouterAdvertSkipsUnknownOptions(t *testing.T) {
	ra := &RouterAdvert{}
	ra.AddPrefix(PrefixInfo{PrefixLen: 64, Autonomous: true, Prefix: ipv6.MustParseAddr("2001:db8::")})
	b := Marshal(testSrc, testDst, ra)
	// Append an unknown NDP option (type 200, one 8-octet unit) and refresh
	// the checksum.
	b = append(b, 200, 1, 0, 0, 0, 0, 0, 0)
	b[2], b[3] = 0, 0
	ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	got, err := Parse(testSrc, testDst, b)
	if err != nil {
		t.Fatal(err)
	}
	opts := got.RA.Options()
	if len(opts) != 2 || opts[0].Raw != nil || opts[0].Prefix.PrefixLen != 64 {
		t.Errorf("unknown option disturbed prefix parsing: %+v", opts)
	}
	if len(opts) == 2 && !bytes.Equal(opts[1].Raw, b[len(b)-8:]) {
		t.Errorf("unknown option not kept verbatim: %x", opts[1].Raw)
	}
}

// TestRouterAdvertOptionCapacity: a RouterAdvert holds MaxRAOptions options
// inline; neither AddPrefix nor Parse drops one silently.
func TestRouterAdvertOptionCapacity(t *testing.T) {
	ra := &RouterAdvert{}
	for i := 0; i < MaxRAOptions; i++ {
		if !ra.AddPrefix(PrefixInfo{PrefixLen: 64, Prefix: ipv6.MustParseAddr("2001:db8::")}) {
			t.Fatalf("AddPrefix %d refused below capacity", i)
		}
	}
	if ra.AddPrefix(PrefixInfo{PrefixLen: 64}) || len(ra.Options()) != MaxRAOptions {
		t.Fatalf("AddPrefix beyond capacity: %d options", len(ra.Options()))
	}
	full := Marshal(testSrc, testDst, ra)
	if got := roundtrip(t, ra).RA; len(got.Options()) != MaxRAOptions {
		t.Fatalf("full advertisement parsed to %d options", len(got.Options()))
	}
	// One more option than fits.
	b := append(full, full[len(full)-32:]...)
	b[2], b[3] = 0, 0
	ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if _, err := Parse(testSrc, testDst, b); err == nil {
		t.Error("accepted an advertisement with more options than a RouterAdvert holds")
	}
}

// TestParseIsCanonical: Parse rejects the encodings Marshal never writes,
// so that every accepted message re-marshals to its own bytes.
func TestParseIsCanonical(t *testing.T) {
	resum := func(b []byte) []byte {
		b[2], b[3] = 0, 0
		ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, b)
		b[2], b[3] = byte(ck>>8), byte(ck)
		return b
	}
	mld := func() []byte { return Marshal(testSrc, testDst, &MLD{Kind: TypeMLDQuery}) }
	ra := &RouterAdvert{}
	ra.AddPrefix(PrefixInfo{PrefixLen: 64, Prefix: ipv6.MustParseAddr("2001:db8::")})
	adv := func() []byte { return Marshal(testSrc, testDst, ra) }
	for name, b := range map[string][]byte{
		"code set":              func() []byte { b := mld(); b[1] = 1; return resum(b) }(),
		"MLD reserved":          func() []byte { b := mld(); b[7] = 1; return resum(b) }(),
		"RS reserved":           func() []byte { b := Marshal(testSrc, testDst, &RouterSolicit{}); b[4] = 1; return resum(b) }(),
		"RA reserved flag":      func() []byte { b := adv(); b[5] = 0x20; return resum(b) }(),
		"prefix reserved flag":  func() []byte { b := adv(); b[HeaderLen+12+3] = 0x01; return resum(b) }(),
		"prefix reserved field": func() []byte { b := adv(); b[HeaderLen+12+12] = 1; return resum(b) }(),
		"long PTB":              resum(append(Marshal(testSrc, testDst, &PacketTooBig{MTU: 1280, Invoking: make([]byte, maxInvoking)}), 0)),
	} {
		if _, err := Parse(testSrc, testDst, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// 0xffff verifies wherever 0 does; only 0 is canonical. Find a message
	// whose checksum is 0 and offer it with 0xffff instead.
	for g := 0; g < 1<<16; g++ {
		b := Marshal(testSrc, testDst, &MLD{Kind: TypeMLDReport, MulticastAddress: ipv6.Addr{0xff, 0x0e, 14: byte(g >> 8), 15: byte(g)}})
		if b[2]|b[3] != 0 {
			continue
		}
		if _, err := Parse(testSrc, testDst, b); err != nil {
			t.Fatalf("zero checksum rejected: %v", err)
		}
		b[2], b[3] = 0xff, 0xff
		if _, err := Parse(testSrc, testDst, b); err == nil {
			t.Error("accepted checksum 0xffff")
		}
		return
	}
	t.Fatal("no message with a zero checksum found")
}

func TestRouterAdvertRejectsMalformedOption(t *testing.T) {
	ra := &RouterAdvert{}
	b := Marshal(testSrc, testDst, ra)
	// Zero-length option.
	b = append(b, optPrefixInfo, 0)
	b[2], b[3] = 0, 0
	ck := ipv6.Checksum(testSrc, testDst, ipv6.ProtoICMPv6, b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if _, err := Parse(testSrc, testDst, b); err == nil {
		t.Error("accepted zero-length NDP option")
	}
}

// Property: parsing arbitrary bytes never panics.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %x: %v", b, r)
			}
		}()
		Parse(testSrc, testDst, b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: MLD roundtrip preserves kind, group, and (for queries) delay.
func TestQuickMLDRoundtrip(t *testing.T) {
	f := func(kindSel uint8, delayMs uint16, tail [16]byte) bool {
		kind := []uint8{TypeMLDQuery, TypeMLDReport, TypeMLDDone}[int(kindSel)%3]
		group := ipv6.Addr(tail)
		group[0] = 0xff
		m := &MLD{Kind: kind, MulticastAddress: group}
		if kind == TypeMLDQuery {
			m.MaxResponseDelay = time.Duration(delayMs) * time.Millisecond
		}
		b := Marshal(testSrc, testDst, m)
		got, err := Parse(testSrc, testDst, b)
		if err != nil {
			return false
		}
		g := got.MLD
		return g.Kind == kind && g.MulticastAddress == group && g.MaxResponseDelay == m.MaxResponseDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMLDMarshalParse(b *testing.B) {
	m := &MLD{Kind: TypeMLDReport, MulticastAddress: group}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := Marshal(testSrc, testDst, m)
		if _, err := Parse(testSrc, testDst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
