package pimdm

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mip6mcast/internal/ipv6"
)

var (
	wSrc   = ipv6.MustParseAddr("fe80::1")
	wDst   = ipv6.AllPIMRouters
	wGroup = ipv6.MustParseAddr("ff0e::101")
	wS     = ipv6.MustParseAddr("2001:db8:1::10")
)

func wireRoundtrip(t *testing.T, msg Message) Msg {
	t.Helper()
	b, err := Marshal(wSrc, wDst, msg)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", msg, err)
	}
	got, err := Parse(wSrc, wDst, b)
	if err != nil {
		t.Fatalf("Parse(%T): %v", msg, err)
	}
	return got
}

func TestHelloRoundtrip(t *testing.T) {
	h := &Hello{Holdtime: 105 * time.Second}
	got := wireRoundtrip(t, h).Hello
	if got.Holdtime != 105*time.Second {
		t.Errorf("holdtime = %v", got.Holdtime)
	}
	// Goodbye hello.
	got = wireRoundtrip(t, &Hello{}).Hello
	if got.Holdtime != 0 {
		t.Errorf("goodbye holdtime = %v", got.Holdtime)
	}
}

func TestJoinPruneRoundtrip(t *testing.T) {
	for _, kind := range []uint8{TypeJoinPrune, TypeGraft, TypeGraftAck} {
		m := &JoinPrune{
			Kind:             kind,
			UpstreamNeighbor: ipv6.MustParseAddr("fe80::42"),
			Holdtime:         210 * time.Second,
			Groups: []JoinPruneGroup{
				{
					Group:  wGroup,
					Joins:  []ipv6.Addr{wS},
					Prunes: []ipv6.Addr{ipv6.MustParseAddr("2001:db8:6::10")},
				},
				{
					Group:  ipv6.MustParseAddr("ff0e::202"),
					Prunes: []ipv6.Addr{wS},
				},
			},
		}
		got := wireRoundtrip(t, m).JoinPrune
		if !reflect.DeepEqual(&got, m) {
			t.Errorf("kind %d: roundtrip\n got %+v\nwant %+v", kind, got, m)
		}
	}
}

func TestJoinPruneEmptyGroups(t *testing.T) {
	m := &JoinPrune{Kind: TypeJoinPrune, UpstreamNeighbor: wSrc, Holdtime: time.Minute}
	got := wireRoundtrip(t, m).JoinPrune
	if len(got.Groups) != 0 {
		t.Errorf("phantom groups: %+v", got.Groups)
	}
}

func TestAssertRoundtrip(t *testing.T) {
	a := &Assert{
		Group:            wGroup,
		Source:           wS,
		RPTBit:           true,
		MetricPreference: 101,
		Metric:           4,
	}
	got := wireRoundtrip(t, a).Assert
	if got != *a {
		t.Errorf("roundtrip %+v != %+v", got, a)
	}
	// Preference must survive masking of the R bit.
	a = &Assert{Group: wGroup, Source: wS, MetricPreference: 0x7fffffff, Metric: 0xffffffff}
	got = wireRoundtrip(t, a).Assert
	if got.MetricPreference != 0x7fffffff || got.RPTBit {
		t.Errorf("pref/R = %d/%v", got.MetricPreference, got.RPTBit)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	b, _ := Marshal(wSrc, wDst, &Hello{Holdtime: time.Minute})
	flip := append([]byte(nil), b...)
	flip[5] ^= 1
	if _, err := Parse(wSrc, wDst, flip); err == nil {
		t.Error("accepted corrupted message")
	}
	if _, err := Parse(wSrc, wDst, b[:3]); err == nil {
		t.Error("accepted truncated message")
	}
	badVer := append([]byte(nil), b...)
	badVer[0] = 0x30 | TypeHello
	if _, err := Parse(wSrc, wDst, badVer); err == nil {
		t.Error("accepted PIM version 3")
	}
	// Unknown type with fixed checksum.
	unk := []byte{0x24 | 0x08, 0, 0, 0}
	unk[0] = pimVersion<<4 | 9
	ck := ipv6.Checksum(wSrc, wDst, ipv6.ProtoPIM, []byte{unk[0], 0, 0, 0})
	unk[2], unk[3] = byte(ck>>8), byte(ck)
	if _, err := Parse(wSrc, wDst, unk); err == nil {
		t.Error("accepted unknown type")
	}
}

func TestEncodedGroupValidation(t *testing.T) {
	m := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: wSrc,
		Groups:           []JoinPruneGroup{{Group: ipv6.MustParseAddr("2001:db8::1")}},
	}
	b, err := Marshal(wSrc, wDst, m)
	if err != nil {
		t.Fatal(err) // marshal doesn't validate group-ness; parse does
	}
	if _, err := Parse(wSrc, wDst, b); err == nil {
		t.Error("accepted unicast address as encoded group")
	}
}

func TestBetterOrdering(t *testing.T) {
	lo := ipv6.MustParseAddr("fe80::1")
	hi := ipv6.MustParseAddr("fe80::2")
	cases := []struct {
		p1, m1 uint32
		a1     ipv6.Addr
		p2, m2 uint32
		a2     ipv6.Addr
		want   bool
	}{
		{100, 5, lo, 101, 1, hi, true}, // lower preference wins
		{101, 1, lo, 100, 5, hi, false},
		{100, 2, lo, 100, 5, hi, true}, // lower metric wins
		{100, 5, lo, 100, 2, hi, false},
		{100, 5, hi, 100, 5, lo, true}, // higher address wins ties
		{100, 5, lo, 100, 5, hi, false},
	}
	for i, c := range cases {
		if got := Better(c.p1, c.m1, c.a1, c.p2, c.m2, c.a2); got != c.want {
			t.Errorf("case %d: Better = %v, want %v", i, got, c.want)
		}
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
		Parse(wSrc, wDst, b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: join/prune roundtrips with arbitrary source sets.
func TestQuickJoinPruneRoundtrip(t *testing.T) {
	f := func(nj, np uint8, seed [16]byte, holdSecs uint16) bool {
		m := &JoinPrune{
			Kind:             TypeJoinPrune,
			UpstreamNeighbor: ipv6.Addr(seed),
			Holdtime:         time.Duration(holdSecs) * time.Second,
		}
		g := JoinPruneGroup{Group: wGroup}
		for i := 0; i < int(nj%16); i++ {
			a := ipv6.Addr(seed)
			a[0], a[15] = 0x20, byte(i)
			g.Joins = append(g.Joins, a)
		}
		for i := 0; i < int(np%16); i++ {
			a := ipv6.Addr(seed)
			a[0], a[15] = 0x30, byte(i)
			g.Prunes = append(g.Prunes, a)
		}
		m.Groups = []JoinPruneGroup{g}
		b, err := Marshal(wSrc, wDst, m)
		if err != nil {
			return false
		}
		got, err := Parse(wSrc, wDst, b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(&got.JoinPrune, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Assert roundtrips for arbitrary metrics and addresses.
func TestQuickAssertRoundtrip(t *testing.T) {
	f := func(pref, metric uint32, rpt bool, tail [16]byte) bool {
		src := ipv6.Addr(tail)
		a := &Assert{
			Group:            wGroup,
			Source:           src,
			RPTBit:           rpt,
			MetricPreference: pref & 0x7fffffff,
			Metric:           metric,
		}
		b, err := Marshal(wSrc, wDst, a)
		if err != nil {
			return false
		}
		got, err := Parse(wSrc, wDst, b)
		if err != nil {
			return false
		}
		return got.Assert == *a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: StateRefresh roundtrips (interval clamps at 255 s).
func TestQuickStateRefreshRoundtrip(t *testing.T) {
	f := func(pref, metric uint32, ttl uint8, p bool, secs uint8, tail [16]byte) bool {
		sr := &StateRefresh{
			Group:            wGroup,
			Source:           ipv6.Addr(tail),
			Originator:       wS,
			MetricPreference: pref & 0x7fffffff,
			Metric:           metric,
			TTL:              ttl,
			PruneIndicator:   p,
			Interval:         time.Duration(secs) * time.Second,
		}
		b, err := Marshal(wSrc, wDst, sr)
		if err != nil {
			return false
		}
		got, err := Parse(wSrc, wDst, b)
		if err != nil {
			return false
		}
		return got.StateRefresh == *sr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Better is a strict total order (antisymmetric, connected) on
// distinct tuples.
func TestQuickBetterTotalOrder(t *testing.T) {
	f := func(p1, m1, p2, m2 uint32, a1, a2 [16]byte) bool {
		x1, x2 := ipv6.Addr(a1), ipv6.Addr(a2)
		b12 := Better(p1, m1, x1, p2, m2, x2)
		b21 := Better(p2, m2, x2, p1, m1, x1)
		if p1 == p2 && m1 == m2 && x1 == x2 {
			return !b12 && !b21 // irreflexive
		}
		return b12 != b21 // exactly one wins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJoinPruneCodec(b *testing.B) {
	m := &JoinPrune{
		Kind:             TypeJoinPrune,
		UpstreamNeighbor: wSrc,
		Holdtime:         210 * time.Second,
		Groups:           []JoinPruneGroup{{Group: wGroup, Prunes: []ipv6.Addr{wS}}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := Marshal(wSrc, wDst, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(wSrc, wDst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStateRefreshWireRoundtrip(t *testing.T) {
	sr := &StateRefresh{
		Group:            wGroup,
		Source:           wS,
		Originator:       ipv6.MustParseAddr("2001:db8:1::a1"),
		MetricPreference: 101,
		Metric:           3,
		TTL:              32,
		PruneIndicator:   true,
		Interval:         60 * time.Second,
	}
	got := wireRoundtrip(t, sr).StateRefresh
	if got != *sr {
		t.Fatalf("roundtrip\n got %+v\nwant %+v", got, sr)
	}
	// Interval clamps at 255 s on the wire.
	sr2 := &StateRefresh{Group: wGroup, Source: wS, Originator: wS, TTL: 1, Interval: time.Hour}
	got2 := wireRoundtrip(t, sr2).StateRefresh
	if got2.Interval != 255*time.Second {
		t.Fatalf("interval = %v, want clamp to 255s", got2.Interval)
	}
}
