// Package core implements the paper's contribution: the four approaches for
// providing PIM-DM multicast to Mobile IPv6 hosts (its Table 1), as
// composable send and receive modes on the mobile host, together with the
// two home-agent variants of Section 4.3.2 — a PIM-capable home agent that
// terminates MLD Reports tunneled from the mobile node, and a plain home
// agent driven by the Multicast Group List Sub-Option in extended Binding
// Updates (the paper's Figure 5 proposal).
package core

// SendMode selects how a mobile host sends multicast datagrams (paper
// §4.2.2).
type SendMode uint8

// Send modes.
const (
	// SendLocal transmits on the visited foreign link with the current
	// care-of address as source (approach A). PIM-DM sees a new source and
	// builds a fresh distribution tree, flooding first.
	SendLocal SendMode = iota
	// SendHomeTunnel reverse-tunnels datagrams to the home agent, which
	// re-originates them on the home link (approach B): the existing tree
	// keeps working.
	SendHomeTunnel
)

// ReceiveMode selects how a mobile host receives multicast (paper §4.2.1).
type ReceiveMode uint8

// Receive modes.
const (
	// ReceiveLocal joins via MLD on the visited foreign link (approach A):
	// optimal routing, but join delay after each movement and leave delay
	// on the previous link.
	ReceiveLocal ReceiveMode = iota
	// ReceiveHomeTunnel keeps group membership at the home agent, which
	// tunnels group traffic to the care-of address (approach B).
	ReceiveHomeTunnel
	// ReceiveProxy joins via MLD on the visited link like ReceiveLocal,
	// but the visited link belongs to a hierarchical MLD-proxy domain
	// (approach #5, M-HMIPv6-style): proxy routers aggregate the
	// membership up to the domain's mobility anchor, so intra-domain
	// handovers re-join against the anchor's already-established state
	// and never touch the home agent or the wider PIM tree.
	ReceiveProxy
)

// HAVariant selects how membership reaches the home agent when receiving
// through the tunnel (paper §4.3.2's two solutions).
type HAVariant uint8

// Home-agent variants.
const (
	// VariantGroupListBU carries the Multicast Group List Sub-Option in
	// extended Binding Updates (the paper's Figure 5 proposal); membership
	// lives exactly as long as the binding.
	VariantGroupListBU HAVariant = iota
	// VariantTunneledMLD sends ordinary MLD Reports through the tunnel to
	// a PIM-capable home agent that treats the tunnel as an interface;
	// membership expires on the MLD Multicast Listener Interval.
	VariantTunneledMLD
)

// Approach is one cell of the paper's Table 1 (plus the HA variant choice).
type Approach struct {
	Send    SendMode
	Receive ReceiveMode
	Variant HAVariant
}

// The four approaches of the paper's Section 4.2.3.
var (
	// LocalMembership: send and receive via the local multicast router on
	// the visited link (approach 1).
	LocalMembership = Approach{Send: SendLocal, Receive: ReceiveLocal}
	// BidirectionalTunnel: send and receive through the home agent
	// (approach 2).
	BidirectionalTunnel = Approach{Send: SendHomeTunnel, Receive: ReceiveHomeTunnel}
	// UniTunnelMNToHA: send through the home agent, receive locally
	// (approach 3).
	UniTunnelMNToHA = Approach{Send: SendHomeTunnel, Receive: ReceiveLocal}
	// UniTunnelHAToMN: send locally, receive through the home agent
	// (approach 4).
	UniTunnelHAToMN = Approach{Send: SendLocal, Receive: ReceiveHomeTunnel}
	// ProxyHierarchy: send locally, receive via a hierarchical
	// MLD-proxy domain anchored at a mobility anchor point (approach 5,
	// beyond the paper; ROADMAP item 3).
	ProxyHierarchy = Approach{Send: SendLocal, Receive: ReceiveProxy}
)

// approachEntry is one registry slot: the approach plus its canonical
// name and lookup aliases.
type approachEntry struct {
	approach Approach
	name     string
	aliases  []string
}

// approachRegistry holds the comparable approaches: the paper's Table 1
// in its numbering (1–4), then the proxy hierarchy.
var approachRegistry = []approachEntry{
	{LocalMembership, "local-membership", []string{"local"}},
	{BidirectionalTunnel, "bidir-tunnel", []string{"tunnel", "bidir"}},
	{UniTunnelMNToHA, "uni-tunnel-mn-to-ha", []string{"mn2ha"}},
	{UniTunnelHAToMN, "uni-tunnel-ha-to-mn", []string{"ha2mn"}},
	{ProxyHierarchy, "proxy-hierarchy", []string{"proxy"}},
}

// Approaches returns every approach in registry order: the paper's four,
// then the proxy hierarchy. Experiments iterate this.
func Approaches() []Approach {
	out := make([]Approach, len(approachRegistry))
	for i, e := range approachRegistry {
		out[i] = e.approach
	}
	return out
}

// ApproachNames returns the canonical approach names in registry order.
func ApproachNames() []string {
	out := make([]string, len(approachRegistry))
	for i, e := range approachRegistry {
		out[i] = e.name
	}
	return out
}

// ApproachAliases returns every approach alias in registry order.
func ApproachAliases() []string {
	var out []string
	for _, e := range approachRegistry {
		out = append(out, e.aliases...)
	}
	return out
}

// ApproachByName resolves a canonical name or alias ("local",
// "tunnel", "proxy") to its approach.
func ApproachByName(name string) (Approach, bool) {
	for _, e := range approachRegistry {
		if e.name == name {
			return e.approach, true
		}
		for _, al := range e.aliases {
			if al == name {
				return e.approach, true
			}
		}
	}
	return Approach{}, false
}

// String names the approach as the paper does: the registry name of its
// send and receive modes. The home-agent variant is not part of the name,
// and every proxy receiver is the proxy hierarchy.
func (a Approach) String() string {
	for _, e := range approachRegistry {
		if e.approach.Receive == a.Receive && (e.approach.Send == a.Send || a.Receive == ReceiveProxy) {
			return e.name
		}
	}
	return "unregistered"
}
