package scenario

import (
	"fmt"
	"time"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/topo"
	"mip6mcast/internal/trace"
)

// Build wires a topo.Graph into a Network with the full protocol stack:
// links in graph order (link i gets prefix 2001:db8:i+1::/64), routers
// in graph order with interfaces in each router's declared link order,
// unicast SPF tables, then PIM-DM / MLD / NDP engines and home agents
// per the graph's designations, each home agent with its multicast
// service (core.HAService). The network always runs on a sim.Kernel
// (Network.Kern): one region per part when Options.Shards cuts the
// graph, a single region otherwise. Construction order is a pure function
// of the graph and options, so equal (graph, options, seed) always produce
// the same event timeline — NewFigure1 is pinned byte-for-byte against
// this build by the golden-trace test.
//
// populate hooks run after the routers come up but before the
// accountant and recorder attach — the window where hosts must be added
// so that observer baselines and taps land in the same order the
// original hand-wired constructor produced.
func Build(g *topo.Graph, opt Options, populate ...func(*Network)) *Network {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	if len(g.Links) > 9999 {
		// Prefix(i) formats the 1-based link number in decimal into one
		// hex group; five digits would not parse.
		panic(fmt.Sprintf("scenario: %d links exceeds the 9999 the prefix scheme can number", len(g.Links)))
	}
	f := &Network{
		Opt:     opt,
		Links:   map[string]*netem.Link{},
		Routers: map[string]*Router{},
		Hosts:   map[string]*Host{},
		Topo:    g,
		haFor:   map[string]string{},
	}

	// Mobility groups are validated against the graph at every shard
	// count (not just when the graph is cut): a spec wrong on one region
	// would start panicking the moment the same experiment is run with
	// -shards, which is exactly the late surprise this guards against.
	if err := topo.ValidateMobilityGroups(g, opt.MobilityGroups); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}

	// Every network runs on one kernel. A graph the partitioner cuts gets
	// one region scheduler per part; anything else (Shards <= 1, or a graph
	// that collapses to one region, like Figure 1 whose links are all
	// LANs) is a one-region kernel seeded with the run seed.
	scheds := []*sim.Scheduler{sim.NewScheduler(opt.Seed)}
	var look time.Duration
	var linkRegion []int
	if opt.Shards > 1 {
		f.Part = topo.PartitionGraph(g, opt.Shards, opt.MobilityGroups)
		if f.Part.N < 2 {
			f.Part = nil
		}
	}
	if f.Part != nil {
		linkRegion = f.Part.LinkRegion(g)
		// Region 0 keeps the raw run seed; the rest get decorrelated
		// derived seeds.
		for i := 1; i < f.Part.N; i++ {
			scheds = append(scheds, sim.NewScheduler(sim.DeriveSeed(opt.Seed, fmt.Sprintf("region-%d", i))))
		}
		// Every cross-region link is a core link, so the core delay is
		// the smallest cross-region latency — the kernel's lookahead.
		look = LinkDelay
		if opt.CoreLinkDelay > 0 {
			look = opt.CoreLinkDelay
		}
	}
	f.Kern = sim.NewKernel(scheds, look, opt.ShardWorkers)
	f.Sched = scheds[0]
	f.Net = netem.New(f.Sched)
	if f.Part != nil {
		f.Net.SetRegions(f.Part.N)
		if opt.Obs != nil {
			// First barrier fold: merge region recorder children into
			// the root stream before any action or sampler appends
			// barrier-time events (keeps the stream chronological).
			f.Kern.OnBarrier(opt.Obs.MergeShards)
		}
	}
	f.Dom = routing.NewDomain(f.Net)

	for i, spec := range g.Links {
		delay := LinkDelay
		if opt.CoreLinkDelay > 0 && !spec.LAN {
			// Applied at every shard count, so one-region and sharded
			// cells of one experiment model the same network.
			delay = opt.CoreLinkDelay
		}
		l := f.Net.NewLink(spec.Name, LinkBandwidth, delay)
		l.MTU = LinkMTU
		if f.Part != nil {
			if r := linkRegion[i]; r >= 0 {
				l.SetSched(scheds[r])
			} else {
				// Region-spanning link: split into paired half-links, one
				// per endpoint region (the partitioner guarantees exactly
				// two routers and no LAN here).
				ends := g.RoutersOn(i)
				l.SetSched(scheds[f.Part.Region[ends[0]]])
				peer := f.Net.SplitLink(l)
				peer.SetSched(scheds[f.Part.Region[ends[1]]])
			}
		}
		f.Links[spec.Name] = l
		f.linkOrder = append(f.linkOrder, spec.Name)
		f.Dom.AssignPrefix(l, Prefix(i+1))
		if ha := g.HomeAgent[i]; ha >= 0 {
			f.haFor[spec.Name] = g.Routers[ha].Name
		}
	}

	for ri, rs := range g.Routers {
		node := f.Net.NewNode(rs.Name, true)
		if f.Part != nil {
			node.SetSched(scheds[f.Part.Region[ri]])
		}
		r := &Router{Node: node, HAs: map[string]*mipv6.HomeAgent{}}
		f.Routers[rs.Name] = r
		f.routerOrder = append(f.routerOrder, rs.Name)
		for _, li := range rs.Links {
			link := f.Links[g.Links[li].Name]
			attach := link
			if p := link.Peer(); p != nil && link.Sched() != node.Sched() {
				// Split link whose primary half lives in another region:
				// this router attaches to its own region's half.
				attach = p
			}
			ifc := node.AddInterface(attach)
			p, _ := f.Dom.PrefixOf(link)
			// Router addresses: <prefix>::aX where X encodes the router.
			ifc.AddAddr(p.WithInterfaceID(0xa0 + uint64(ri+1)))
		}
	}
	f.Dom.Recompute()

	// Hierarchical MLD-proxy plan (approach #5). Explicit graph
	// designations win; otherwise domains are peeled automatically up to
	// the configured depth. Resolved before any router's protocol stack
	// starts, because startRouterProtocols consults it per router.
	if opt.ProxyDepth > 0 {
		doms := g.ProxyDomains
		if len(doms) == 0 {
			doms = topo.AutoProxyDomains(g, opt.ProxyDepth)
		}
		plan, err := topo.BuildProxyPlan(g, doms)
		if err != nil {
			panic(fmt.Sprintf("scenario: %v", err))
		}
		f.Proxy = plan
	}

	for _, name := range f.routerOrder {
		f.startRouterProtocols(name)
	}

	for _, fn := range populate {
		fn(f)
	}

	f.Acct = metrics.NewAccountant(f.Net)
	for _, s := range scheds {
		if opt.Instrument {
			s.Instrument()
		}
		if opt.ProfileLabels {
			s.LabelProfiles()
		}
	}
	if opt.Obs != nil {
		f.AttachRecorder(opt.Obs)
		trace.RecordLinks(opt.Obs, f.Net, nil)
	}
	// A registry serves exactly one timeline; when one options value
	// builds several networks (multi-variant experiments), only the first
	// network gets the samplers.
	if opt.Telemetry != nil && !opt.Telemetry.Started() {
		attachTelemetry(f)
	}
	for _, name := range f.routerOrder {
		f.startHAServices(f.Routers[name])
	}
	if opt.OnNetwork != nil {
		opt.OnNetwork(f)
	}
	return f
}
