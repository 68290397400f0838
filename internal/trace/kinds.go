package trace

import (
	"sort"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/pimdm"
)

// Kind is what one transmission carries: its innermost message, as far as
// header fields and type bytes tell. It is the simulator's one wire
// vocabulary: metrics derives its accounting classes from it, Describe
// renders it, and experiment taps select frames by it.
type Kind uint8

// Transmission kinds. Classify returns every kind but three that only the
// parse Describe does for its detail can tell: KindPIMJoin and KindPIMPrune
// refine KindPIMJoinPrune, and KindICMP6Bad replaces an ICMPv6 kind whose
// message does not parse. KindPIMBad does that for PIM, and Classify gives
// it to a PIM type neither engine speaks, which could not parse either.
const (
	KindData            Kind = iota // UDP to a multicast group
	KindUDP                         // UDP to a unicast address
	KindFragment                    // a fragment: only its reassembly could tell more
	KindBU                          // Mobile IPv6 Binding Update
	KindBAck                        // Binding Acknowledgement
	KindBReq                        // Binding Request
	KindMLDQuery                    // MLD Query
	KindMLDReport                   // MLD Report
	KindMLDDone                     // MLD Done
	KindNDPRS                       // Router Solicitation
	KindNDPRA                       // Router Advertisement
	KindICMP6                       // any other ICMPv6 type (Packet Too Big)
	KindICMP6Bad                    // an ICMPv6 message that does not parse
	KindPIMHello                    // PIM Hello
	KindPIMJoinPrune                // PIM Join/Prune
	KindPIMJoin                     // a Join/Prune that only joins
	KindPIMPrune                    // a Join/Prune that only prunes
	KindPIMGraft                    // PIM Graft
	KindPIMGraftAck                 // PIM Graft-Ack
	KindPIMAssert                   // PIM Assert
	KindPIMStateRefresh             // PIM State Refresh
	KindHPIMInterest                // HPIM-DM Interest
	KindHPIMNoInterest              // HPIM-DM NoInterest
	KindHPIMAck                     // HPIM-DM declaration acknowledgement
	KindPIMBad                      // a PIM message that does not parse
	KindNone                        // no next header and no binding option
	KindProto                       // any other protocol; Describe names it "proto<N>"; the last kind
	NumKinds
)

// kinds names each Kind. A fallback kind recognizes a packet only by its
// protocol number or header shape, not as a message some protocol sends;
// a scenario trace should hold none (see the Figure 1 coverage test).
var kinds = [NumKinds]struct {
	name     string
	fallback bool
}{
	KindData:            {name: "data"},
	KindUDP:             {name: "udp"},
	KindFragment:        {name: "fragment"},
	KindBU:              {name: "bu"},
	KindBAck:            {name: "back"},
	KindBReq:            {name: "breq"},
	KindMLDQuery:        {name: "mld-query"},
	KindMLDReport:       {name: "mld-report"},
	KindMLDDone:         {name: "mld-done"},
	KindNDPRS:           {name: "ndp-rs"},
	KindNDPRA:           {name: "ndp-ra"},
	KindICMP6:           {name: "icmp6", fallback: true},
	KindICMP6Bad:        {name: "icmp6?", fallback: true},
	KindPIMHello:        {name: "pim-hello"},
	KindPIMJoinPrune:    {name: "pim-joinprune"},
	KindPIMJoin:         {name: "pim-join"},
	KindPIMPrune:        {name: "pim-prune"},
	KindPIMGraft:        {name: "pim-graft"},
	KindPIMGraftAck:     {name: "pim-graftack"},
	KindPIMAssert:       {name: "pim-assert"},
	KindPIMStateRefresh: {name: "pim-staterefresh"},
	KindHPIMInterest:    {name: "hpim-interest"},
	KindHPIMNoInterest:  {name: "hpim-nointerest"},
	KindHPIMAck:         {name: "hpim-ack"},
	KindPIMBad:          {name: "pim?", fallback: true},
	KindNone:            {name: "none", fallback: true},
	KindProto:           {name: "proto", fallback: true},
}

// String returns the kind's name, the Event.Kind Describe gives it; for
// KindProto Describe appends the protocol number.
func (k Kind) String() string { return kinds[k].name }

// Fallback reports whether k is a catch-all classification.
func (k Kind) Fallback() bool { return kinds[k].fallback }

// Classify returns the kind of pkt's innermost message and the number of
// tunnel layers around it. It reads header fields and type bytes only: it
// verifies no checksum, parses no message and allocates nothing, so a tap
// on every link can afford it. A fragment is KindFragment at depth 0,
// since a fragment of a tunnel packet cannot be walked into.
func Classify(pkt *ipv6.Packet) (Kind, int) {
	if pkt.Fragment() != nil {
		return KindFragment, 0
	}
	depth := 0
	for ; pkt.Inner != nil; pkt = pkt.Inner {
		depth++
	}
	// Mobile IPv6 destination options first: in this system they ride on
	// otherwise empty packets.
	for _, o := range pkt.DestOpts() {
		switch o.Type {
		case ipv6.OptBindingUpdate:
			return KindBU, depth
		case ipv6.OptBindingAck:
			return KindBAck, depth
		case ipv6.OptBindingReq:
			return KindBReq, depth
		}
	}
	switch pkt.Proto {
	case ipv6.ProtoUDP:
		if pkt.Hdr.Dst.IsMulticast() {
			return KindData, depth
		}
		return KindUDP, depth
	case ipv6.ProtoICMPv6:
		if len(pkt.Payload) > 0 {
			if k, ok := icmpKinds[pkt.Payload[0]]; ok {
				return k, depth
			}
		}
		return KindICMP6, depth
	case ipv6.ProtoPIM:
		if len(pkt.Payload) > 0 {
			if k, ok := pimKinds[pkt.Payload[0]&0x0f]; ok {
				return k, depth
			}
		}
		return KindPIMBad, depth
	case ipv6.ProtoNoNext:
		return KindNone, depth
	}
	return KindProto, depth
}

// icmpKinds and pimKinds name the ICMPv6 and PIM message types the
// simulator sends by their type code (a PIM header's low nibble).
var (
	icmpKinds = map[uint8]Kind{
		icmpv6.TypeMLDQuery:      KindMLDQuery,
		icmpv6.TypeMLDReport:     KindMLDReport,
		icmpv6.TypeMLDDone:       KindMLDDone,
		icmpv6.TypeRouterSolicit: KindNDPRS,
		icmpv6.TypeRouterAdvert:  KindNDPRA,
	}
	pimKinds = map[uint8]Kind{
		pimdm.TypeHello:        KindPIMHello,
		pimdm.TypeJoinPrune:    KindPIMJoinPrune,
		pimdm.TypeGraft:        KindPIMGraft,
		pimdm.TypeGraftAck:     KindPIMGraftAck,
		pimdm.TypeAssert:       KindPIMAssert,
		pimdm.TypeStateRefresh: KindPIMStateRefresh,
		pimdm.TypeInterest:     KindHPIMInterest,
		pimdm.TypeNoInterest:   KindHPIMNoInterest,
		pimdm.TypeDeclAck:      KindHPIMAck,
	}
)

// KindNamed returns the kind called name. The open-ended "proto<N>"
// names no kind.
func KindNamed(name string) (Kind, bool) {
	for k := range KindProto {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// KnownKinds returns every kind name, sorted, except the open-ended
// "proto<N>". CLI kind filters validate against this set.
func KnownKinds() []string {
	out := make([]string, KindProto)
	for k := range KindProto {
		out[k] = k.String()
	}
	sort.Strings(out)
	return out
}
