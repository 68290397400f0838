package mip6mcast

import (
	"strings"
	"testing"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/topo"
)

func smallScaleConfig() scaleConfig {
	return scaleConfig{
		sources:    2,
		memberFrac: 0.5,
		dwell:      20 * time.Second,
		horizon:    60 * time.Second,
		approach:   LocalMembership,
	}
}

// Every topology family must satisfy the convergence invariants once the
// churn window quiesces — including the cyclic families (grid, waxman,
// ba), which exercise the non-RPF point-to-point prune path the paper's
// tree-shaped Figure 1 never reaches.
func TestScaleSmallCellsConverge(t *testing.T) {
	for _, family := range topo.Families() {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			opt := chaosTune(DefaultOptions())
			opt.Seed = 1
			res := runScaleOne(opt, scaleCell{family: family, routers: 6, mns: 8}, smallScaleConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if res.JoinN == 0 {
				t.Error("no join delays were measured")
			}
			if res.DataBytes == 0 {
				t.Error("no data bytes were accounted")
			}
		})
	}
}

// The tunnel approach must run the same machinery (home-agent services,
// binding updates, tunnel encapsulation) over generated topologies, and
// away members must pull traffic through their home agents.
func TestScaleTunnelApproachTunnels(t *testing.T) {
	opt := chaosTune(DefaultOptions())
	opt.Seed = 1
	cfg := smallScaleConfig()
	cfg.approach = BidirectionalTunnel
	res := runScaleOne(opt, scaleCell{family: "tree", routers: 6, mns: 8}, cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Moves > 0 && res.HATunneled == 0 {
		t.Error("mobile members moved but no home agent tunneled anything")
	}
}

// One timeline, two seeds: the graph, workload, and measurements of a
// stochastic family must all derive from the master seed.
func TestScaleSeedChangesOutcome(t *testing.T) {
	cfg := smallScaleConfig()
	run := func(seed int64) ScaleOutcome {
		opt := chaosTune(DefaultOptions())
		opt.Seed = seed
		return runScaleOne(opt, scaleCell{family: "waxman", routers: 8, mns: 8}, cfg)
	}
	a, b := run(1), run(2)
	if a.Moves == b.Moves && a.PIMBytes == b.PIMBytes && a.DataBytes == b.DataBytes {
		t.Errorf("seeds 1 and 2 produced identical outcomes: %+v", a)
	}
	a2 := run(1)
	if a.Moves != a2.Moves || a.PIMBytes != a2.PIMBytes || a.DataBytes != a2.DataBytes ||
		a.JoinP50 != a2.JoinP50 || a.WasteBytes != a2.WasteBytes || a.SGHighWater != a2.SGHighWater {
		t.Errorf("seed 1 reruns differ:\n%+v\n%+v", a, a2)
	}
}

// ParseFamilies must accept '+'-separated lists and reject unknown
// family names with a helpful error.
func TestParseFamilies(t *testing.T) {
	got, err := ParseFamilies("tree+grid")
	if err != nil || len(got) != 2 || got[0] != "tree" || got[1] != "grid" {
		t.Errorf("ParseFamilies(tree+grid) = %v, %v", got, err)
	}
	if _, err := ParseFamilies("hypercube"); err == nil ||
		!strings.Contains(err.Error(), "hypercube") {
		t.Errorf("ParseFamilies(hypercube) error = %v, want unknown-family error", err)
	}
	if _, err := ParseFamilies(""); err == nil {
		t.Error("ParseFamilies(\"\") did not error")
	}
}

// The registered experiment must resolve its default parameters and carry
// the violations column first, mirroring the chaos table convention.
func TestScaleExperimentSchema(t *testing.T) {
	e, ok := GetExperiment("scale")
	if !ok {
		t.Fatal("scale experiment not registered")
	}
	p, err := e.ResolveParams(exp.Params{})
	if err != nil {
		t.Fatalf("defaults do not resolve: %v", err)
	}
	if fams, err := ParseFamilies(p.Str("families")); err != nil || len(fams) == 0 {
		t.Errorf("default families %q invalid: %v", p.Str("families"), err)
	}
}
