package scenario

import (
	"fmt"
	"sort"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/hpimdm"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
)

// engineBuilders constructs one router's multicast engine per engine
// name. Both engines run on the one dense-mode timer set, Options.PIM, so
// a single Options value drives every engine the same scenario compares.
var engineBuilders = map[string]func(node *netem.Node, cfg pimdm.Config, rt engine.UnicastRouting) engine.MulticastEngine{
	"pimdm": func(node *netem.Node, cfg pimdm.Config, rt engine.UnicastRouting) engine.MulticastEngine {
		return pimdm.New(node, cfg, rt)
	},
	"hpimdm": func(node *netem.Node, cfg pimdm.Config, rt engine.UnicastRouting) engine.MulticastEngine {
		return hpimdm.New(node, cfg, rt)
	},
}

// EngineNames lists the multicast engines, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engineBuilders))
	for n := range engineBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EngineName resolves the effective engine selection: the zero value
// selects classic PIM-DM, keeping every pre-registry caller (and the
// golden traces they pinned) unchanged.
func (o Options) EngineName() string {
	if o.Engine == "" {
		return "pimdm"
	}
	return o.Engine
}

// buildEngine constructs the selected engine; unknown names panic (the
// experiment layer validates user input before any network is built, so
// reaching here with a bad name is a programming error).
func buildEngine(node *netem.Node, opt Options, rt engine.UnicastRouting) engine.MulticastEngine {
	b, ok := engineBuilders[opt.EngineName()]
	if !ok {
		panic(fmt.Sprintf("scenario: unknown multicast engine %q (registered: %v)", opt.EngineName(), EngineNames()))
	}
	return b(node, opt.PIM, rt)
}

// proxyStubRouting wraps a core router's unicast table in proxy-hierarchy
// builds: an RPF lookup that resolves through an intra-domain link reports
// no upstream neighbor, because the only routers there are MLD proxies,
// which speak no PIM. The engine then treats such sources exactly like
// directly-attached ones — it never prunes or grafts into the void (the
// proxy up-forwards unconditionally anyway) and originates State Refresh
// as the first multicast router above the domain.
type proxyStubRouting struct {
	engine.UnicastRouting
	linkDomain map[string]string
}

func (p proxyStubRouting) RPFInterface(src ipv6.Addr) (*netem.Interface, ipv6.Addr, bool) {
	ifc, nbr, ok := p.UnicastRouting.RPFInterface(src)
	if ok && ifc != nil && ifc.Link != nil {
		if _, in := p.linkDomain[ifc.Link.Name]; in {
			nbr = ipv6.Addr{}
		}
	}
	return ifc, nbr, ok
}
