// Package check asserts convergence invariants over a settled Figure 1
// network: once churn quiesces (links healed, crashed routers restarted,
// membership stable), the distributed protocol state must agree with what
// the topology and the membership ground truth demand. The chaos
// experiments run these checks after every impairment scenario; a
// violation means a protocol bug, not an unlucky seed — PIM-DM, MLD and
// the binding protocols are all supposed to converge through any finite
// amount of loss, reordering, duplication and restarts.
package check

import (
	"fmt"
	"sort"
	"time"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
)

// Violation is one invariant breach.
type Violation struct {
	// Invariant identifies the broken property: "black-hole", "leak",
	// "zombie-sg", "zombie-mld", "zombie-binding", "missing-binding",
	// "graft-pending", "graft-unanswered", "proxy-fwd-set",
	// "zombie-proxy", "missing-proxy", "proxy-upstream".
	Invariant string
	// Node is the router or host the violation is attributed to ("" when
	// it is a link/tree-level property).
	Node string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	if v.Node == "" {
		return v.Invariant + ": " + v.Detail
	}
	return v.Invariant + "(" + v.Node + "): " + v.Detail
}

// Expectation is the membership ground truth the checker validates the
// protocol state against.
type Expectation struct {
	// Source and Group identify the data flow under test.
	Source ipv6.Addr
	Group  ipv6.Addr
	// Members maps host name to current membership of Group. Hosts not
	// listed are treated as non-members.
	Members map[string]bool
}

// Converged runs every quiesced-state invariant and returns all breaches
// (empty slice: the network converged correctly). It must be called on a
// healed topology — links up, crashed routers restarted — after enough
// settle time for the protocols' own convergence horizons (last-listener
// rounds, graft retries, prune expiry or a State Refresh interval).
// One Entries snapshot per router serves both the zombie-(S,G) and the
// graft-pending check.
func Converged(f *scenario.Network, exp Expectation) []Violation {
	var sgs, grafts []Violation
	for _, rn := range f.RouterOrder() {
		entries := f.Routers[rn].Engine.Entries()
		if _, isP := f.ProxySpec(rn); !isP {
			sgs = zombieEntries(sgs, f, rn, entries)
		}
		grafts = pendingGrafts(grafts, rn, entries)
	}
	out := append(ForwardingSet(f, exp), sgs...)
	out = append(out, zombieMembers(f, exp)...)
	out = append(out, grafts...)
	return append(out, ProxyTree(f, exp)...)
}

// proxyNodes returns the build's proxy plan nodes (empty map when the
// proxy subsystem is disabled).
func proxyNodes(f *scenario.Network) map[string]topo.ProxyNodeSpec {
	if f.Proxy.Empty() {
		return map[string]topo.ProxyNodeSpec{}
	}
	return f.Proxy.Nodes
}

// extendProxyDemand folds proxy subtree demand into the per-link demand
// map, bottom-up (deepest proxies first): a proxy whose downstream
// links carry demand — from member hosts, node-local (home-agent)
// members, or a deeper proxy's upstream join — is itself an MLD member
// on its upstream link, which is ground truth the parent's listener
// state and the anchor's forwarding set are checked against.
func extendProxyDemand(f *scenario.Network, group ipv6.Addr, demand map[string]bool) {
	proxies := proxyNodes(f)
	if len(proxies) == 0 {
		return
	}
	names := make([]string, 0, len(proxies))
	for rn := range proxies {
		names = append(names, rn)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := proxies[names[i]].Depth, proxies[names[j]].Depth
		if di != dj {
			return di > dj
		}
		return names[i] < names[j]
	})
	for _, rn := range names {
		spec := proxies[rn]
		want := f.Routers[rn].Engine.HasLocalMember(group)
		for _, d := range spec.Downstream {
			if demand[d] {
				want = true
				break
			}
		}
		if want {
			demand[spec.Upstream] = true
		}
	}
}

// linkDemand computes, per link name, whether any member host currently
// attached to it demands Group there (receive-local membership follows the
// host's attachment).
func linkDemand(f *scenario.Network, exp Expectation) map[string]bool {
	demand := map[string]bool{}
	for name, member := range exp.Members {
		if !member {
			continue
		}
		h, ok := f.Hosts[name]
		if !ok || h.Iface.Link == nil {
			continue
		}
		demand[h.Iface.Link.Name] = true
	}
	return demand
}

// rpfLinkOf returns the link name a router's RPF interface toward src uses
// ("" if unroutable).
func rpfLinkOf(f *scenario.Network, r *scenario.Router, src ipv6.Addr) string {
	ifc, _, ok := f.Dom.TableOf(r.Node).RPFInterface(src)
	if !ok || ifc == nil || ifc.Link == nil {
		return ""
	}
	return ifc.Link.Name
}

// ForwardingSet asserts invariant (a): the set of links that carry (S,G)
// data — walked through the routers' actual forwarding state from the
// source link down — equals the RPF tree minus pruned leaves, i.e. exactly
// the links justified by member demand plus the transit links reaching
// them. A justified link missing from the walk is a black hole (someone
// pruned or lost state that demand requires); an unjustified link present
// is a leak (a prune that never converged).
//
// Both closures run as worklists over precomputed RPF and attachment
// maps, so the check is linear in routers + interfaces. The scale
// experiment runs it once per source over 500-router topologies; the
// original all-pairs fixpoint was cubic and would dominate those runs.
func ForwardingSet(f *scenario.Network, exp Expectation) []Violation {
	srcLink := f.Dom.LinkFor(exp.Source)
	if srcLink == nil {
		return []Violation{{Invariant: "black-hole", Detail: "source " + exp.Source.String() + " is not on any link"}}
	}
	demand := linkDemand(f, exp)
	extendProxyDemand(f, exp.Group, demand)
	proxies := proxyNodes(f)

	// Precompute each router's RPF link toward the source and, per link,
	// which routers pull their (S,G) feed from it (their RPF points there).
	// A proxy has no RPF: its data plane is fixed by its tree position, so
	// it registers as a puller on every one of its links and is expanded
	// by the data-plane rule below instead of its (nonexistent) PIM state.
	routers := f.RouterOrder()
	rpf := make(map[string]string, len(routers))
	pullers := map[string][]string{} // link name -> routers fed from it
	for _, rn := range routers {
		if spec, isP := proxies[rn]; isP {
			pullers[spec.Upstream] = append(pullers[spec.Upstream], rn)
			for _, d := range spec.Downstream {
				pullers[d] = append(pullers[d], rn)
			}
			continue
		}
		ln := rpfLinkOf(f, f.Routers[rn], exp.Source)
		rpf[rn] = ln
		if ln != "" {
			pullers[ln] = append(pullers[ln], rn)
		}
	}

	// need(router): the router must receive (S,G) on its RPF link — it has
	// node-local members (HA subscriptions) or forwards to a link somebody
	// wants. Base demand seeds the worklist; each newly needy router then
	// makes every other router attached to its RPF link needy in turn
	// (they are the ones who would forward onto that link).
	need := map[string]bool{}
	var queue []string
	markNeed := func(rn string) {
		if !need[rn] {
			need[rn] = true
			queue = append(queue, rn)
		}
	}
	for _, rn := range routers {
		if _, isP := proxies[rn]; isP {
			// Proxy demand is already folded into the demand map (its
			// upstream join is member demand on that link).
			continue
		}
		r := f.Routers[rn]
		if r.Engine.HasLocalMember(exp.Group) {
			markNeed(rn)
			continue
		}
		for _, ifc := range r.Node.Ifaces {
			if ifc.Link != nil && ifc.Link.Name != rpf[rn] && demand[ifc.Link.Name] {
				markNeed(rn)
				break
			}
		}
	}
	for len(queue) > 0 {
		dn := queue[0]
		queue = queue[1:]
		feed := rpf[dn]
		if feed == "" {
			continue
		}
		// Span the link's whole broadcast domain: a cross-region link is
		// split into paired halves, and the forwarding neighbor may sit on
		// the peer half (sharded builds; Peer is nil otherwise).
		sides := [][]*netem.Interface{f.Links[feed].Ifaces}
		if p := f.Links[feed].Peer(); p != nil {
			sides = append(sides, p.Ifaces)
		}
		for _, side := range sides {
			for _, ifc := range side {
				nb := ifc.Node
				if !nb.IsRouter || nb.Name == dn || rpf[nb.Name] == feed {
					continue
				}
				if _, isP := proxies[nb.Name]; isP {
					continue // proxies do not pull PIM feeds
				}
				markNeed(nb.Name)
			}
		}
	}

	// justified(link): some attached entity wants the traffic — the source
	// link itself, links with member demand, and every needy router's feed.
	justified := map[string]bool{srcLink.Name: true}
	for ln := range demand {
		justified[ln] = true
	}
	for _, rn := range routers {
		if need[rn] && rpf[rn] != "" {
			justified[rpf[rn]] = true
		}
	}
	// A source inside a proxy domain is forwarded upstream unconditionally
	// (RFC 4605 has no prune): the whole chain of upstream links from its
	// serving proxy to the anchor carries the data, demanded or not.
	if len(proxies) > 0 {
		cur := srcLink.Name
		for hops := 0; hops <= len(proxies); hops++ {
			next := ""
			for _, rn := range routers {
				spec, isP := proxies[rn]
				if !isP {
					continue
				}
				for _, d := range spec.Downstream {
					if d == cur {
						next = spec.Upstream
						break
					}
				}
			}
			if next == "" {
				break
			}
			justified[next] = true
			cur = next
		}
	}

	// Walk actual delivery: start at the source link; a router whose RPF
	// link is reached and whose (S,G) entry forwards onto further links
	// extends the set. A router with no entry floods on arrival (dense
	// mode), so treat it as forwarding everywhere it would flood. Each
	// router's forward list is fixed state, so it is expanded exactly once
	// — when its RPF link first becomes delivered.
	delivered := map[string]bool{srcLink.Name: true}
	links := []string{srcLink.Name}
	for len(links) > 0 {
		ln := links[0]
		links = links[1:]
		for _, rn := range pullers[ln] {
			r := f.Routers[rn]
			var fwd []string
			if spec, isP := proxies[rn]; isP {
				// Data-plane rule: downward traffic replicates onto the
				// member downstream links; subtree traffic additionally
				// goes upstream unconditionally. No flood fallback — a
				// proxy without aggregated state forwards nothing down.
				info, ok := r.Engine.Entry(ipv6.Addr{}, exp.Group)
				if ln != spec.Upstream {
					fwd = append(fwd, spec.Upstream)
				}
				if ok {
					for _, d := range info.ForwardingOn {
						if d != ln {
							fwd = append(fwd, d)
						}
					}
				}
				for _, next := range fwd {
					if !delivered[next] {
						delivered[next] = true
						links = append(links, next)
					}
				}
				continue
			}
			if info, ok := r.Engine.Entry(exp.Source, exp.Group); ok {
				// An upstream-pruned entry stops the flow here: data no
				// longer reaches this router, so nothing continues.
				if !info.PrunedUpstream || info.GraftPending {
					fwd = info.ForwardingOn
				}
			} else {
				// No state: the next datagram floods per shouldForward.
				for _, ifc := range r.Node.Ifaces {
					if ifc.Link == nil || ifc.Link.Name == ln || !ifc.Up() {
						continue
					}
					fwd = append(fwd, ifc.Link.Name)
				}
			}
			for _, next := range fwd {
				if !delivered[next] {
					delivered[next] = true
					links = append(links, next)
				}
			}
		}
	}

	var out []Violation
	for _, ln := range f.LinkOrder() {
		switch {
		case justified[ln] && !delivered[ln]:
			out = append(out, Violation{Invariant: "black-hole", Detail: fmt.Sprintf("link %s demands (%s,%s) but the forwarding state never delivers it", ln, exp.Source, exp.Group)})
		case delivered[ln] && !justified[ln]:
			out = append(out, Violation{Invariant: "leak", Detail: fmt.Sprintf("link %s carries (%s,%s) with no member or downstream demand", ln, exp.Source, exp.Group)})
		}
	}
	return out
}

// zombieEntries appends to out a violation for each of router rn's (S,G)
// entries that disagrees with the (static) routing domain: an entry whose
// recorded upstream is not the router's current RPF link is a relic of a
// dead incarnation or a forged message. Callers skip proxy routers: they
// hold (*,G) aggregates, not PIM state, and ProxyTree owns their checks.
func zombieEntries(out []Violation, f *scenario.Network, rn string, entries []engine.SGInfo) []Violation {
	r := f.Routers[rn]
	for _, info := range entries {
		want := rpfLinkOf(f, r, info.Source)
		if got := info.Upstream; want != got {
			out = append(out, Violation{
				Invariant: "zombie-sg", Node: rn,
				Detail: fmt.Sprintf("(%s,%s) upstream %q but RPF says %q", info.Source, info.Group, got, want),
			})
		}
	}
	return out
}

// zombieMembers checks that no state owned by a departed host survives:
// MLD listener records must match where member hosts actually sit, and
// binding caches must reflect each host's true location.
func zombieMembers(f *scenario.Network, exp Expectation) []Violation {
	var out []Violation
	proxies := proxyNodes(f)

	// MLD listener state must match ground truth per link. Proxy joins on
	// upstream links are ground-truth demand too (the parent's listener
	// record for a joined proxy is correct, not a zombie), so the demand
	// map is extended with subtree demand before comparing. A proxy's own
	// upstream interface runs the host role with the router role disabled —
	// it keeps no listener state there, so that interface is skipped.
	demand := linkDemand(f, exp)
	extendProxyDemand(f, exp.Group, demand)
	for _, rn := range f.RouterOrder() {
		r := f.Routers[rn]
		spec, isP := proxies[rn]
		for _, ifc := range r.Node.Ifaces {
			if ifc.Link == nil {
				continue
			}
			if isP && ifc.Link.Name == spec.Upstream {
				continue
			}
			has := r.MLD.HasListeners(ifc, exp.Group)
			want := demand[ifc.Link.Name]
			if has && !want {
				out = append(out, Violation{
					Invariant: "zombie-mld", Node: rn,
					Detail: fmt.Sprintf("listener record for %s on %s with no member host attached", exp.Group, ifc.Link.Name),
				})
			} else if !has && want {
				out = append(out, Violation{
					Invariant: "zombie-mld", Node: rn,
					Detail: fmt.Sprintf("no listener record for %s on %s despite a member host", exp.Group, ifc.Link.Name),
				})
			}
		}
	}

	// Binding caches: an away host must be bound at its home agent with
	// its current care-of address; a host at home must not linger.
	hosts := make([]string, 0, len(f.Hosts))
	for name := range f.Hosts {
		hosts = append(hosts, name)
	}
	sort.Strings(hosts)
	for _, name := range hosts {
		h := f.Hosts[name]
		ha := f.HomeAgentOf(name)
		if ha == nil {
			continue
		}
		b, bound := ha.BindingFor(h.MN.HomeAddress)
		if h.MN.AtHome() {
			if bound {
				out = append(out, Violation{
					Invariant: "zombie-binding", Node: ha.Node.Name,
					Detail: fmt.Sprintf("binding for %s (host %s is at home)", h.MN.HomeAddress, name),
				})
			}
			continue
		}
		if !bound {
			out = append(out, Violation{
				Invariant: "missing-binding", Node: ha.Node.Name,
				Detail: fmt.Sprintf("host %s is away but %s holds no binding", name, ha.Node.Name),
			})
		} else if b.CareOf != h.MN.CareOf() {
			out = append(out, Violation{
				Invariant: "zombie-binding", Node: ha.Node.Name,
				Detail: fmt.Sprintf("host %s bound to stale care-of %s (current %s)", name, b.CareOf, h.MN.CareOf()),
			})
		}
	}
	return out
}

// GraftsResolved asserts the quiesced half of invariant (c): no router is
// still waiting for a Graft-Ack once churn has stopped — with a live RPF
// neighbor, every pending graft must have been acknowledged (or
// retransmitted into acknowledgment) by now.
func GraftsResolved(f *scenario.Network) []Violation {
	var out []Violation
	for _, rn := range f.RouterOrder() {
		out = pendingGrafts(out, rn, f.Routers[rn].Engine.Entries())
	}
	return out
}

// pendingGrafts appends to out a violation for each of router rn's
// entries still awaiting a Graft-Ack.
func pendingGrafts(out []Violation, rn string, entries []engine.SGInfo) []Violation {
	for _, info := range entries {
		if info.GraftPending {
			out = append(out, Violation{
				Invariant: "graft-pending", Node: rn,
				Detail: fmt.Sprintf("(%s,%s) still awaiting Graft-Ack at quiesce", info.Source, info.Group),
			})
		}
	}
	return out
}

// GraftLiveness asserts the trace half of invariant (c) over a recorded
// timeline: every "graft-sent" instant is followed — within the retry
// interval plus slack — by a "graft-ack", another "graft-sent" (the
// retransmission), or the end of the entry's life ("sg-deleted"). events
// must be a full run recording (obs.Recorder.Events()); horizon bounds the
// check so grafts still in their first retry window at the end of the
// trace are not false positives.
func GraftLiveness(events []obs.Event, retry time.Duration, slack time.Duration, horizon sim.Time) []Violation {
	window := retry + slack
	var out []Violation
	for i, ev := range events {
		if ev.Cat != obs.CatInstant || ev.Name != "graft-sent" {
			continue
		}
		deadline := ev.At.Add(window)
		if deadline > horizon {
			continue // still inside its retry window at trace end
		}
		resolved := false
		for _, later := range events[i+1:] {
			if later.At > deadline {
				break
			}
			if later.Node != ev.Node || later.Track != ev.Track {
				continue
			}
			if later.Cat == obs.CatInstant && (later.Name == "graft-ack" || later.Name == "graft-sent" || later.Name == "sg-deleted") {
				resolved = true
				break
			}
		}
		if !resolved {
			out = append(out, Violation{
				Invariant: "graft-unanswered", Node: ev.Node,
				Detail: fmt.Sprintf("graft at %v on %q neither acked nor retried within %v", ev.At, ev.Track, window),
			})
		}
	}
	return out
}

// ProxyTree asserts the proxy-hierarchy invariants over every proxy in
// the build's plan (a no-op when the subsystem is disabled): each proxy's
// aggregate (*,G) forwarding set equals the union of its downstream
// memberships, aggregate state exists exactly when the subtree demands
// the group (no zombie aggregates after the last member leaves, no
// missing aggregates while demand persists), and the aggregate's
// upstream matches the plan's tree position.
func ProxyTree(f *scenario.Network, exp Expectation) []Violation {
	proxies := proxyNodes(f)
	if len(proxies) == 0 {
		return nil
	}
	demand := linkDemand(f, exp)
	extendProxyDemand(f, exp.Group, demand)
	var out []Violation
	for _, rn := range f.RouterOrder() {
		spec, isP := proxies[rn]
		if !isP {
			continue
		}
		r := f.Routers[rn]
		// Union of downstream memberships per the proxy's own MLD router
		// state (the router role stays active on downstream interfaces).
		var want []string
		for _, ifc := range r.Node.Ifaces {
			if ifc.Link == nil || ifc.Link.Name == spec.Upstream {
				continue
			}
			if r.MLD.HasListeners(ifc, exp.Group) {
				want = append(want, ifc.Link.Name)
			}
		}
		sort.Strings(want)

		// Ground-truth subtree demand: a demanded downstream link (member
		// host or deeper proxy join) or a node-local (HA) member.
		truth := r.Engine.HasLocalMember(exp.Group)
		for _, d := range spec.Downstream {
			if demand[d] {
				truth = true
			}
		}

		info, ok := r.Engine.Entry(ipv6.Addr{}, exp.Group)
		if !ok {
			if truth {
				out = append(out, Violation{
					Invariant: "missing-proxy", Node: rn,
					Detail: fmt.Sprintf("subtree demands %s but no aggregate (*,G) state exists", exp.Group),
				})
			}
			if len(want) > 0 {
				out = append(out, Violation{
					Invariant: "proxy-fwd-set", Node: rn,
					Detail: fmt.Sprintf("downstream memberships %v for %s but no aggregate entry", want, exp.Group),
				})
			}
			continue
		}
		if !truth {
			out = append(out, Violation{
				Invariant: "zombie-proxy", Node: rn,
				Detail: fmt.Sprintf("aggregate (*,%s) survives with no downstream membership or local member", exp.Group),
			})
		}
		got := append([]string(nil), info.ForwardingOn...)
		sort.Strings(got)
		if !equalStrings(got, want) {
			out = append(out, Violation{
				Invariant: "proxy-fwd-set", Node: rn,
				Detail: fmt.Sprintf("(*,%s) forwards on %v but downstream memberships are %v", exp.Group, got, want),
			})
		}
		if info.Upstream != spec.Upstream {
			out = append(out, Violation{
				Invariant: "proxy-upstream", Node: rn,
				Detail: fmt.Sprintf("(*,%s) upstream %q but the plan says %q", exp.Group, info.Upstream, spec.Upstream),
			})
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Format renders violations one per line (for logs and test failures).
func Format(vs []Violation) string {
	s := ""
	for _, v := range vs {
		s += v.String() + "\n"
	}
	return s
}
