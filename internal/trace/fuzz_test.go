package trace_test

import (
	"strings"
	"testing"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/trace"
)

// refines reports whether Describe may name a packet Classify calls kind
// by name: kind's own name, or what only the parse tells (a Join/Prune
// that only joins or only prunes, an ICMPv6 or PIM message that does not
// parse, the protocol number of an unknown protocol).
func refines(kind trace.Kind, name string) bool {
	switch {
	case name == kind.String():
		return true
	case kind == trace.KindProto:
		return strings.HasPrefix(name, "proto")
	case kind == trace.KindPIMJoinPrune && (name == "pim-join" || name == "pim-prune"):
		return true
	case kind >= trace.KindMLDQuery && kind <= trace.KindICMP6:
		return name == trace.KindICMP6Bad.String()
	case kind >= trace.KindPIMHello && kind <= trace.KindPIMBad:
		return name == trace.KindPIMBad.String()
	}
	return false
}

// FuzzDescribe decodes arbitrary bytes as a frame and describes and
// accounts what decodes. Properties: neither Describe nor metrics.Split
// panics, Describe's kind is Classify's kind or a refinement it allows,
// Describe's tunnel depth is Classify's, and Split puts every byte of the
// frame in exactly one class. `go test` runs the seed corpus (a packet of
// every kind, plus tunneled ones); run
// `go test -fuzz FuzzDescribe ./internal/trace` to search.
func FuzzDescribe(f *testing.F) {
	for _, s := range kindSamples(f) {
		frame, err := s.pkt.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		pkt, err := ipv6.Decode(frame)
		if err != nil {
			return
		}
		kind, depth := trace.Classify(pkt)
		e := trace.Describe(netem.TxEvent{Link: &netem.Link{Name: "X"}, Frame: frame, Pkt: pkt})
		if !refines(kind, e.Kind) || e.TunnelDepth != depth {
			t.Fatalf("Classify says %s at depth %d, Describe %q at depth %d", kind, depth, e.Kind, e.TunnelDepth)
		}
		total := 0
		for class, n := range metrics.Split(pkt, len(frame)) {
			if n < 0 {
				t.Fatalf("Split gives class %s %d bytes", metrics.Class(class), n)
			}
			total += n
		}
		if total != len(frame) {
			t.Fatalf("Split accounts %d of %d bytes", total, len(frame))
		}
	})
}
