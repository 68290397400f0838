// Package mip6mcast reproduces "Interoperation of Mobile IPv6 and Protocol
// Independent Multicast Dense Mode" (Bettstetter, Riedl, Geßler; ICPP
// 2000) as a runnable system: a deterministic discrete-event IPv6 network
// with full PIM-DM, MLD, NDP and Mobile IPv6 implementations, the paper's
// four approaches for multicast to/from mobile hosts, and experiment
// runners that quantify every comparison the paper makes qualitatively.
//
// The typical entry point is the experiment registry (see EXPERIMENTS.md):
// every paper table/figure/section is a named Experiment that can be listed,
// parameterized, replicated across parallel timelines and reduced to
// mean ± 95% CI statistics:
//
//	opt := mip6mcast.DefaultOptions()
//	res, err := mip6mcast.RunExperiment("s44",
//		mip6mcast.ExpContext{Opt: opt, Replicates: 5}, nil)
//	fmt.Print(res.Render())
//
// RunExperiment is the only way to run a paper artifact. Every experiment
// is a sweep over its variants, replicated Replicates times; typed results
// (F1Result … F4Result, T1Row, S431Result, ...) come from each point's
// Stats[i].Raw, one value per replicate.
package mip6mcast

import (
	"mip6mcast/internal/core"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/scenario"
)

// Re-exported types: the approach model (the paper's Table 1)...
type (
	// Approach is one of the paper's four ways to combine send/receive
	// modes.
	Approach = core.Approach
	// SendMode selects local sending vs the reverse tunnel.
	SendMode = core.SendMode
	// ReceiveMode selects local membership vs home-agent tunneling.
	ReceiveMode = core.ReceiveMode
	// HAVariant selects how membership reaches the home agent.
	HAVariant = core.HAVariant
)

// ...and the scenario/options surface.
type (
	// Options parameterizes a network build (timers, engine, seed).
	Options = scenario.Options
	// Network is the assembled Figure 1 system.
	Network = scenario.Network
)

// The four approaches (paper §4.2.3) plus the hierarchical MLD-proxy
// extension (approach #5, after Schmidt/Wählisch's M-HMIPv6).
var (
	LocalMembership     = core.LocalMembership
	BidirectionalTunnel = core.BidirectionalTunnel
	UniTunnelMNToHA     = core.UniTunnelMNToHA
	UniTunnelHAToMN     = core.UniTunnelHAToMN
	ProxyHierarchy      = core.ProxyHierarchy
)

// Mode constants.
const (
	SendLocal          = core.SendLocal
	SendHomeTunnel     = core.SendHomeTunnel
	ReceiveLocal       = core.ReceiveLocal
	ReceiveHomeTunnel  = core.ReceiveHomeTunnel
	ReceiveProxy       = core.ReceiveProxy
	VariantGroupListBU = core.VariantGroupListBU
	VariantTunneledMLD = core.VariantTunneledMLD
)

// Approaches returns every registered approach in registration order: the
// paper's Table 1 followed by extensions such as the proxy hierarchy.
func Approaches() []Approach { return core.Approaches() }

// ApproachNames returns the registered approach names in the same order
// as Approaches.
func ApproachNames() []string { return core.ApproachNames() }

// ApproachByName resolves a registered approach by name or alias
// ("local-membership"/"local", ..., "proxy-hierarchy"/"proxy").
func ApproachByName(name string) (Approach, bool) { return core.ApproachByName(name) }

// Group is the multicast group the experiments and examples stream to.
var Group = scenario.Group

// DefaultOptions returns the RFC/draft default timer set on the Figure 1
// network.
func DefaultOptions() Options { return scenario.DefaultOptions() }

// FastMLDOptions returns DefaultOptions with the paper's §4.4 tuning
// applied: a reduced MLD Query Interval.
func FastMLDOptions(queryIntervalSeconds int) Options {
	opt := scenario.DefaultOptions()
	opt.MLD = mld.FastConfig(secs(queryIntervalSeconds))
	return opt
}

// Table renders experiment rows as an aligned text table.
func Table(title string, columns []string, rows []metrics.Row) string {
	return metrics.Table(title, columns, rows)
}

// Row is one labeled result row.
type Row = metrics.Row

// The experiment registry surface (see internal/exp). Entries are
// registered by this package's init and cover every paper artifact:
// f1 f2 f3 f4 t1 s44 s431 s432 smg sld smtu, plus the chaos and scale
// sweeps.
type (
	// Experiment is a registered, runnable paper artifact.
	Experiment = exp.Experiment
	// ExpContext carries base options, replicate count and worker cap.
	ExpContext = exp.Context
	// ExpParams overrides an experiment's declared parameters.
	ExpParams = exp.Params
	// ExpResult is a rendered-table-plus-statistics experiment outcome.
	ExpResult = exp.Result
)

// Experiments returns the registered experiment names in registration
// (canonical "run all") order.
func Experiments() []string { return exp.Names() }

// GetExperiment looks up a registered experiment by name.
func GetExperiment(name string) (*Experiment, bool) { return exp.Get(name) }

// RunExperiment resolves params against the named experiment's schema and
// runs it. Replicates and Workers come from the context; a nil params map
// uses the declared defaults.
func RunExperiment(name string, ctx ExpContext, p ExpParams) (ExpResult, error) {
	return exp.Run(name, ctx, p)
}
