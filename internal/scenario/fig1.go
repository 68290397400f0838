package scenario

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/engine"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/mldproxy"
	"mip6mcast/internal/ndp"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/telemetry"
	"mip6mcast/internal/topo"
)

// Group is the multicast group used throughout the experiments.
var Group = ipv6.MustParseAddr("ff0e::101")

// Options parameterizes a network build. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	Seed int64
	// Engine selects the dense-mode multicast engine by registry name
	// ("pimdm", "hpimdm"); empty selects pimdm. See EngineNames.
	Engine string
	// PIM is the dense-mode timer set both engines run on.
	PIM pimdm.Config
	// MLD is the one MLD timer set: queriers, host listeners, home-agent
	// services and proxy host roles all read it.
	MLD mld.Config
	// ResendOnMove makes hosts re-send unsolicited Reports for their
	// memberships after moving to a new link (the paper's recommendation
	// for mobile receivers; see mld.HostConfig).
	ResendOnMove bool
	NDP          ndp.RouterConfig

	// Shards, when > 1, partitions the router graph into up to that many
	// regions (topo.PartitionGraph — LANs are never split) and drives them
	// in parallel under a conservative sim.Kernel: one deterministic
	// timeline, byte-identical for any worker count at a fixed shard
	// count. 0 or 1, or a graph the partitioner cannot cut, runs the
	// network as a kernel of one region seeded with Seed. Note that
	// different shard counts are different (individually deterministic)
	// timelines: each region draws from its own seeded streams.
	Shards int
	// ShardWorkers bounds the goroutines driving regions inside a window
	// (0: one per region). It never affects the timeline, only wall-clock.
	ShardWorkers int
	// CoreLinkDelay, when > 0, replaces LinkDelay on every non-LAN (core)
	// link — at ALL shard counts, so one-region and sharded cells of one
	// experiment model the same network. The smallest cross-region latency
	// is a sharded run's conservative lookahead (CoreLinkDelay if set,
	// else LinkDelay).
	CoreLinkDelay time.Duration
	// MobilityGroups lists sets of link indices that must share a region:
	// a mobile node's home LAN plus every LAN it may move to (netem.Move
	// panics across regions). Scale experiments pass the partition's
	// LinkRegion to topo.GenWorkload so churn stays region-confined.
	MobilityGroups [][]int
	// ProxyDepth, when > 0, enables the hierarchical MLD-proxy subsystem
	// (approach #5): proxy domains come from the graph's explicit
	// ProxyDomains designation, or are derived by topo.AutoProxyDomains
	// with this peel depth when the graph designates none. Member routers
	// then run internal/mldproxy instead of a PIM engine, with their MLD
	// router role disabled on the upstream link. 0 disables the subsystem
	// entirely — builds and traces are unchanged from previous releases.
	ProxyDepth int

	// Obs, when non-nil, is bound to the network's scheduler and attached
	// to every protocol engine and link: state-machine transitions and
	// decoded wire transmissions land in the recorder for JSONL/Perfetto
	// export. One recorder serves one timeline; replicated sweeps attach
	// one per replicate.
	Obs *obs.Recorder
	// Instrument enables per-handler-tag wall-clock timing on every
	// region scheduler (see sim.Scheduler.Instrument). Queue high-water
	// mark and dispatch counts are tracked regardless.
	Instrument bool
	// ProfileLabels enables runtime/pprof goroutine labels during event
	// dispatch on every region scheduler (see
	// sim.Scheduler.LabelProfiles), so CPU profiles taken
	// through mip6sim's -http pprof endpoint attribute samples to the
	// scheduler handler tags (pim, mld, mipv6, link, ...).
	ProfileLabels bool
	// Telemetry, when non-nil, is populated with the standard sampler set
	// (scheduler, per-link, per-router engine, home-agent series — see
	// attachTelemetry) and sampled at the network's kernel barriers. One
	// registry serves one timeline; when one options value builds several
	// networks, only the first network built gets the registry. If Obs is
	// also set, scalar samples are mirrored into it as counter tracks.
	Telemetry *telemetry.Registry
	// TelemetryEvery is the virtual-time sampling period (default 1s).
	TelemetryEvery time.Duration
	// OnNetwork, when non-nil, observes every Network built from these
	// options right after construction. The experiment engine uses it to
	// collect per-replicate scheduler run stats.
	OnNetwork func(*Network)
}

// DefaultOptions uses every protocol's draft/RFC default — the
// configuration whose delays the paper criticizes.
func DefaultOptions() Options {
	host := mld.DefaultHostConfig()
	return Options{
		Seed:         1,
		PIM:          pimdm.DefaultConfig(),
		MLD:          host.Config,
		ResendOnMove: host.ResendOnMove,
		NDP:          ndp.DefaultRouterConfig(),
	}
}

// Every link a build makes is a 10 Mbit/s shared medium with a 1 ms
// one-way delay (CoreLinkDelay may override the delay on core links) and a
// 1500-byte MTU. Encapsulation adds 40 bytes, so tunnels near the MTU
// trigger source fragmentation at the tunnel entry — the implementation
// issue the paper's conclusion flags for the uni-directional tunnels.
const (
	LinkBandwidth int64 = 10_000_000
	LinkDelay           = time.Millisecond
	LinkMTU             = 1500
)

// Router bundles one router's protocol roles. Engine is the dense-mode
// multicast engine built by the registry selection in Options.Engine.
type Router struct {
	Node   *netem.Node
	Engine engine.MulticastEngine
	MLD    *mld.Router
	NDP    *ndp.Router
	// HAs maps home-link name to the home agent instance this router runs
	// for it (per the paper: A serves L1, B L2, C L3, D L4+L5, E L6).
	HAs map[string]*mipv6.HomeAgent
	// HAServices holds the multicast service of each home agent, in
	// HomeAgents order: it turns the agent's bindings' group
	// subscriptions into local membership on Engine (the paper's first
	// §4.3.2 scenario). Empty while the router is crashed.
	HAServices []*core.HAService
}

// HALinks returns the home-link names this router serves, sorted.
func (r *Router) HALinks() []string {
	links := make([]string, 0, len(r.HAs))
	for ln := range r.HAs {
		links = append(links, ln)
	}
	sort.Strings(links)
	return links
}

// HomeAgents returns the router's home agents in sorted home-link order,
// the order Build and RestartRouter start their HAServices in. Use this
// instead of ranging over the HAs map wherever the iteration schedules
// events: map order would perturb the timeline's event sequence and break
// trace reproducibility.
func (r *Router) HomeAgents() []*mipv6.HomeAgent {
	links := r.HALinks()
	out := make([]*mipv6.HomeAgent, len(links))
	for i, ln := range links {
		out[i] = r.HAs[ln]
	}
	return out
}

// Host bundles one (potentially mobile) host's roles.
type Host struct {
	Name  string
	Node  *netem.Node
	Iface *netem.Interface
	MN    *mipv6.MobileNode
	MLD   *mld.Host
	IID   uint64
	// HomeLink names the link the host homes on (where its home agent
	// and home prefix live), regardless of current attachment.
	HomeLink string

	lastOuterHops int
}

// OuterHops returns the router hop count of the most recent tunnel leg
// delivering to this host (for path-stretch accounting).
func (h *Host) OuterHops() int { return h.lastOuterHops }

// Network is an assembled simulation system — the paper's Figure 1 or
// any generated topo.Graph (see Build).
type Network struct {
	Opt Options
	// Sched is region 0's scheduler: the only one unless Part cuts the
	// network.
	Sched   *sim.Scheduler
	Net     *netem.Network
	Dom     *routing.Domain
	Links   map[string]*netem.Link
	Routers map[string]*Router
	Hosts   map[string]*Host
	Acct    *metrics.Accountant
	// Topo is the graph this network was built from.
	Topo *topo.Graph
	// Kern drives the run. It has one region unless Part, the region
	// assignment, cuts the network; Part is nil for Shards <= 1 and for a
	// graph that collapses to one region (Figure 1, whose links are all
	// LANs).
	Kern *sim.Kernel
	Part *topo.Partition
	// Proxy is the resolved MLD-proxy plan (nil or empty when
	// Options.ProxyDepth is 0 or the graph yields no domains).
	Proxy *topo.ProxyPlan

	// Handover classification counters (atomic: region events move hosts
	// in parallel). Meaningful only when Proxy is non-empty.
	anchorLocalHandovers uint64
	homeRoutedHandovers  uint64

	linkOrder   []string          // link names in construction order
	routerOrder []string          // router names in construction order
	haFor       map[string]string // link name -> home-agent router name

	obs *obs.Recorder // set by AttachRecorder; nil when not observing
}

// Scheds returns every region scheduler in region order (one unless Part
// cuts the network). Aggregating probes (telemetry, run stats) must sum
// over all of them.
func (f *Network) Scheds() []*sim.Scheduler { return f.Kern.Regions() }

// At schedules a scripted driver action (a move, a crash, an impairment
// toggle) at absolute virtual time t. The kernel forces a barrier there,
// so fn runs single-threaded with every region clock equal to t, after
// every event before t and before every event at t — the only safe point
// to mutate cross-region state. Driver scripts must use this instead of
// f.Sched.At.
func (f *Network) At(t sim.Time, fn func()) { f.Kern.At(t, fn) }

// SamplePeriodic runs fn at every multiple of period. The kernel fires it
// at barriers where all region clocks equal the due time, after every
// event before it and before every event at it, so fn may read the whole
// network as a consistent cut. It is not a scheduler event.
func (f *Network) SamplePeriodic(period time.Duration, fn func()) { f.Kern.Every(period, fn) }

// LinkOrder returns the link names in construction (graph) order. All
// iteration that schedules events or emits trace records must use this
// rather than ranging over the Links map.
func (f *Network) LinkOrder() []string { return f.linkOrder }

// RouterOrder returns the router names in construction (graph) order.
func (f *Network) RouterOrder() []string { return f.routerOrder }

// figure1 host placement per the paper: Sender S and Receiver 1 on
// Link 1, Receiver 2 on Link 2, Receiver 3 on Link 4.
var (
	hostHomes = map[string]string{
		"S": "L1", "R1": "L1", "R2": "L2", "R3": "L4",
	}
	hostIIDs = map[string]uint64{
		"S": 0x5000, "R1": 0x1001, "R2": 0x1002, "R3": 0x1003,
	}
)

// LinkNames lists the six links in order.
func LinkNames() []string { return []string{"L1", "L2", "L3", "L4", "L5", "L6"} }

// RouterNames lists the five routers in order.
func RouterNames() []string { return []string{"A", "B", "C", "D", "E"} }

// HostNames lists the paper's hosts.
func HostNames() []string { return []string{"S", "R1", "R2", "R3"} }

// Prefix returns the /64 assigned to the numbered link (1-based).
func Prefix(link int) ipv6.Addr {
	return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", link))
}

// NewFigure1 builds the paper's network with the full protocol stack. All
// hosts start on their home links; no multicast membership or workload is
// attached yet. It is exactly Build(topo.Figure1(), opt) plus the paper's
// four hosts.
func NewFigure1(opt Options) *Network {
	return Build(topo.Figure1(), opt, func(f *Network) {
		for _, name := range HostNames() {
			f.AddHost(name, hostHomes[name], hostIIDs[name])
		}
	})
}

// startRouterProtocols builds the router's full protocol stack (PIM-DM,
// MLD querier, NDP advertising, home-agent roles) on its node — used both
// at construction and to revive a crashed router with factory-fresh state.
func (f *Network) startRouterProtocols(name string) {
	r := f.Routers[name]
	opt := f.Opt
	spec, isProxy := f.ProxySpec(name)
	if isProxy {
		px, err := mldproxy.New(r.Node, mldproxy.Config{
			Upstream:   spec.Upstream,
			Downstream: spec.Downstream,
			Anchor:     spec.Anchor,
			Depth:      spec.Depth,
			MLD:        opt.MLD,
		})
		if err != nil {
			panic(err)
		}
		r.Engine = px
	} else {
		rt := engine.UnicastRouting(f.Dom.TableOf(r.Node))
		if !f.Proxy.Empty() {
			rt = proxyStubRouting{rt, f.Proxy.LinkDomain}
		}
		r.Engine = buildEngine(r.Node, opt, rt)
	}
	r.MLD = mld.NewRouter(r.Node, opt.MLD)
	eng := r.Engine
	r.MLD.OnListenerChange = func(ev mld.ListenerEvent) {
		eng.HandleListenerChange(ev.Iface, ev.Group, ev.Present)
	}
	if isProxy {
		// A proxy performs only the host portion of MLD on its upstream
		// interface (RFC 4605 §4.2); the router role there would contest
		// the querier election against the parent.
		for _, ifc := range r.Node.Ifaces {
			if ifc.Link != nil && ifc.Link.Name == spec.Upstream {
				r.MLD.Disable(ifc)
			}
		}
	}
	r.NDP = ndp.NewRouter(r.Node, opt.NDP, func(ifc *netem.Interface) (ipv6.Addr, bool) {
		return f.Dom.PrefixOf(ifc.Link)
	})
	// Home agent role on designated links.
	for _, ifc := range r.Node.Ifaces {
		if f.haFor[ifc.Link.Name] != name {
			continue
		}
		r.HAs[ifc.Link.Name] = mipv6.NewHomeAgent(r.Node, ifc, ifc.GlobalAddr(), mipv6.DefaultHAConfig())
	}
}

// CrashRouter fails a router: its home agents' services are stopped and
// its protocol engines closed (every timer and ticker they own is
// cancelled), the node's dispatch state is wiped and its interfaces go
// down. The router stays dark until RestartRouter.
func (f *Network) CrashRouter(name string) {
	r, ok := f.Routers[name]
	if !ok {
		return
	}
	for _, svc := range r.HAServices {
		svc.Stop()
	}
	r.HAServices = nil
	if r.Engine != nil {
		r.Engine.Close()
	}
	if r.MLD != nil {
		r.MLD.Close()
	}
	if r.NDP != nil {
		r.NDP.Close()
	}
	for _, ha := range r.HomeAgents() {
		ha.Close()
	}
	r.Node.Crash()
	if f.obs != nil {
		f.obs.For(r.Node.Sched()).Instant(name, "node "+name, "crash", "")
	}
}

// RestartRouter revives a crashed router: interfaces come back up and the
// protocol stack, home-agent services included, is rebuilt from scratch —
// empty neighbor tables, no (S,G) state, no listener records, no bindings
// — exactly what a reboot leaves. Recovery then happens in protocol time
// (hellos, queries, State Refresh, mobile-node re-registration).
func (f *Network) RestartRouter(name string) {
	r, ok := f.Routers[name]
	if !ok {
		return
	}
	r.Node.Restart()
	r.HAs = map[string]*mipv6.HomeAgent{}
	f.startRouterProtocols(name)
	if f.obs != nil {
		rec := f.obs.For(r.Node.Sched())
		rec.Instant(name, "node "+name, "restart", "")
		r.Engine.AttachRecorder(rec)
		r.MLD.AttachRecorder(rec)
		for _, ha := range r.HomeAgents() {
			ha.AttachRecorder(rec)
		}
	}
	f.startHAServices(r)
}

// startHAServices starts one core.HAService per home agent of r, bound to
// that agent and to r's engine, in HomeAgents order (each arms a ticker).
func (f *Network) startHAServices(r *Router) {
	has := r.HomeAgents()
	r.HAServices = make([]*core.HAService, len(has))
	for i, ha := range has {
		r.HAServices[i] = core.NewHAService(ha, r.Engine, nil, f.Opt.MLD)
	}
}

// AttachRecorder binds rec to the network's scheduler and attaches it to
// every router engine (PIM, MLD, home agents) and host (mobile node, MLD
// listener), emitting each machine's current state as a baseline. Hosts
// added later via AddHost are attached automatically. Link transmissions
// are not recorded here; use trace.RecordLinks for those (NewFigure1 does
// both when Options.Obs is set).
func (f *Network) AttachRecorder(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Bind(f.Sched)
	f.obs = rec
	// Cut networks split the recorder: one child per region (written only
	// by that region's events during windows), merged into rec's stream at
	// every kernel barrier — the merge fold is registered by Build, first
	// among the barrier folds so root events at the barrier time append
	// after all merged (earlier) child events.
	if f.Part != nil {
		for _, s := range f.Scheds() {
			rec.Shard(s)
		}
	}
	for _, name := range f.routerOrder {
		r, ok := f.Routers[name]
		if !ok {
			continue
		}
		rr := rec.For(r.Node.Sched())
		r.Engine.AttachRecorder(rr)
		r.MLD.AttachRecorder(rr)
		for _, ha := range r.HomeAgents() {
			ha.AttachRecorder(rr)
		}
	}
	hosts := make([]string, 0, len(f.Hosts))
	for name := range f.Hosts {
		hosts = append(hosts, name)
	}
	sort.Strings(hosts)
	for _, name := range hosts {
		f.attachHostRecorder(f.Hosts[name])
	}
}

func (f *Network) attachHostRecorder(h *Host) {
	hr := f.obs.For(h.Node.Sched())
	h.MN.AttachRecorder(hr)
	h.MLD.Obs = hr
}

// AddHost creates an additional mobile-capable host with its home on the
// given link.
func (f *Network) AddHost(name, homeLink string, iid uint64) *Host {
	node := f.Net.NewNode(name, false)
	if f.Part != nil {
		// Hosts live in their home LAN's region (LANs are never split, so
		// the link's scheduler is the region scheduler). Must precede
		// interface attachment and protocol construction — modules capture
		// the node's scheduler.
		node.SetSched(f.Links[homeLink].Sched())
	}
	ifc := node.AddInterface(f.Links[homeLink])
	haRouter := f.Routers[f.haFor[homeLink]]
	var haAddr ipv6.Addr
	for _, rifc := range haRouter.Node.Ifaces {
		if rifc.Link == f.Links[homeLink] {
			haAddr = rifc.GlobalAddr()
		}
	}
	p, _ := f.Dom.PrefixOf(f.Links[homeLink])
	h := &Host{Name: name, Node: node, Iface: ifc, IID: iid, HomeLink: homeLink}
	h.MN = mipv6.NewMobileNode(node, iid, mipv6.DefaultMNConfig(p, haAddr))
	h.MN.OnDecap = func(outer netem.RxPacket, inner *ipv6.Packet) {
		h.lastOuterHops = int(ipv6.DefaultHopLimit - outer.HopLimit())
	}
	h.MLD = mld.NewHost(node, mld.HostConfig{Config: f.Opt.MLD, ResendOnMove: f.Opt.ResendOnMove})
	f.Hosts[name] = h
	if f.obs != nil {
		f.attachHostRecorder(h)
	}
	f.Dom.AttachHost(node) // install the host's dynamic route table
	return h
}

// HomeAgentOf returns the home agent serving the host's home link.
func (f *Network) HomeAgentOf(host string) *mipv6.HomeAgent {
	h, ok := f.Hosts[host]
	if !ok {
		return nil
	}
	return f.Routers[f.haFor[h.HomeLink]].HAs[h.HomeLink]
}

// Move reattaches a host to another link (triggering NDP movement
// detection, SLAAC and Mobile IPv6 registration). It panics on an
// invalid move (unknown host or link, cross-region handover); driver
// code that wants to fail one experiment cell instead of the process
// uses TryMove.
func (f *Network) Move(host, link string) {
	if err := f.TryMove(host, link); err != nil {
		panic(err)
	}
}

// TryMove validates a handover and performs it, reporting an invalid
// move as a descriptive error with the live run untouched. In a sharded
// run a host can only roam among links of its current region: a node's
// pending timers and protocol state live in its region's scheduler, so
// a cross-region reattachment would tear the timeline apart. List every
// link one mobile population roams among in Options.MobilityGroups and
// the partition will keep them co-region.
func (f *Network) TryMove(host, link string) error {
	h, ok := f.Hosts[host]
	if !ok {
		return fmt.Errorf("scenario: Move: no host %q", host)
	}
	dst, ok := f.Links[link]
	if !ok {
		return fmt.Errorf("scenario: Move %s: no link %q", host, link)
	}
	if dst.Sched() != h.Node.Sched() {
		cur := "detached"
		if h.Iface.Link != nil {
			cur = h.Iface.Link.Name
		}
		return fmt.Errorf("scenario: cannot move %s from %s to %s: the links run in different shard regions; "+
			"list both in the same Options.MobilityGroups entry so the partition keeps the host's roaming domain in one region",
			host, cur, link)
	}
	if !f.Proxy.Empty() {
		from := ""
		if h.Iface.Link != nil {
			from = h.Iface.Link.Name
		}
		// Anchor-local: both links lie inside the same proxy domain, so
		// the re-join terminates at the domain's anchor (or an inner
		// proxy) and the home agent never hears about it.
		if a := f.Proxy.LinkDomain[from]; a != "" && a == f.Proxy.LinkDomain[link] {
			atomic.AddUint64(&f.anchorLocalHandovers, 1)
		} else {
			atomic.AddUint64(&f.homeRoutedHandovers, 1)
		}
	}
	f.Net.Move(h.Iface, dst)
	return nil
}

// ProxySpec returns the named router's proxy-tree position when the
// build's proxy plan designates it a proxy member.
func (f *Network) ProxySpec(name string) (topo.ProxyNodeSpec, bool) {
	if f.Proxy.Empty() {
		return topo.ProxyNodeSpec{}, false
	}
	spec, ok := f.Proxy.Nodes[name]
	return spec, ok
}

// ProxyOf returns the mldproxy instance running on the named router
// (nil for anchors, non-members, and proxy-disabled builds).
func (f *Network) ProxyOf(name string) *mldproxy.Proxy {
	r, ok := f.Routers[name]
	if !ok || r.Engine == nil {
		return nil
	}
	px, _ := r.Engine.(*mldproxy.Proxy)
	return px
}

// HandoverCounts returns how many handovers stayed inside one proxy
// domain (anchor-local) versus crossed a domain boundary or involved
// non-domain links (home-routed). Both are zero when the proxy
// subsystem is disabled.
func (f *Network) HandoverCounts() (anchorLocal, homeRouted uint64) {
	return atomic.LoadUint64(&f.anchorLocalHandovers), atomic.LoadUint64(&f.homeRoutedHandovers)
}

// Run advances the simulation by d.
func (f *Network) Run(d time.Duration) { f.Kern.Run(d) }

// Now returns the kernel's barrier clock: the current virtual time between
// Run/RunUntil calls and inside driver actions and periodic samplers. An
// event handler reads its own scheduler's clock instead.
func (f *Network) Now() sim.Time { return f.Kern.Now() }

// RunUntil advances the simulation to absolute time t, running every
// event at or before it.
func (f *Network) RunUntil(t sim.Time) { f.Kern.RunUntil(t) }

// Settle runs long enough for NDP/SLAAC, PIM hello exchange and initial MLD
// queries to complete (10 s of virtual time).
func (f *Network) Settle() { f.Run(10 * time.Second) }

// SendLocalMulticast transmits one multicast datagram from the host on its
// current link using its current source address — the paper's approach A
// for mobile senders.
func (f *Network) SendLocalMulticast(host string, group ipv6.Addr, payload []byte) {
	h := f.Hosts[host]
	src := h.MN.CareOf()
	if src.IsUnspecified() {
		src = h.MN.HomeAddress
	}
	u := &ipv6.UDP{SrcPort: WorkloadPort, DstPort: WorkloadPort, Payload: payload}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: group, HopLimit: ipv6.DefaultHopLimit},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, group),
	}
	_ = h.Node.OutputOn(h.Iface, pkt)
}

// TotalSGEntries sums live (S,G) state across all routers — the paper's
// router storage-load criterion.
func (f *Network) TotalSGEntries() int {
	n := 0
	for _, r := range f.Routers {
		n += r.Engine.EntryCount()
	}
	return n
}

// MulticastStats aggregates the control-message counters of all routers,
// whatever engine they run.
func (f *Network) MulticastStats() engine.Stats {
	var t engine.Stats
	for _, name := range f.routerOrder {
		t.Add(f.Routers[name].Engine.MulticastStats())
	}
	return t
}
