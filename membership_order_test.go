package mip6mcast

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/obs"
)

// tunneledMLD is the home-agent-to-mobile-node tunnel with membership
// signalled by MLD through the tunnel (the paper's first §4.3.2 variant).
var tunneledMLD = func() Approach {
	a := UniTunnelHAToMN
	a.Variant = VariantTunneledMLD
	return a
}()

// multiGroupTrace runs Figure 1 through NewRun with R3 joined to extra
// groups beside scenario.Group and returns the run's JSONL trace (link
// transmissions and protocol state). R3 moves to L6 at 15 s, leaves its
// first extra group at 45 s, returns home to L4 at 75 s, and the run ends
// at 120 s: away under tunneled MLD it answers the home agent's tunnel
// General Queries for every group, the Leave sends a tunneled Done that
// starts the home agent's last-listener query round, and the return home
// re-joins every group on the home link.
func multiGroupTrace(t *testing.T, seed int64, engine string, approach Approach, extra int) []byte {
	t.Helper()
	opt := FastMLDOptions(10)
	opt.Seed = seed
	opt.Engine = engine
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	r := NewRun(opt, approach, time.Second, 64)
	groups := make([]ipv6.Addr, extra)
	for i := range groups {
		// Joined in descending address order, so a walk in join order
		// and a walk in address order differ.
		groups[i] = ipv6.MustParseAddr(fmt.Sprintf("ff0e::%x", 0x200-i))
		r.Services["R3"].Join(groups[i])
	}
	s := r.F.Sched
	s.Schedule(15*time.Second, func() { r.F.Move("R3", "L6") })
	s.Schedule(45*time.Second, func() { r.Services["R3"].Leave(groups[0]) })
	s.Schedule(75*time.Second, func() { r.F.Move("R3", "L4") })
	r.F.Run(120 * time.Second)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A host in several groups must run the same timeline on every run at one
// seed: its Reports, Report delays and the home agent's membership changes
// follow the groups' address order, never a map's iteration order. Both
// ways a mobile receiver keeps its groups are run three times: local
// membership (the router's Queries at home and on L6, the unsolicited
// Reports after each move) and tunneled MLD (the home agent's tunnel
// Queries, the tunneled Reports and Done, the return home).
func TestMultiGroupRunsRepeat(t *testing.T) {
	for _, a := range []Approach{LocalMembership, tunneledMLD} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			first := multiGroupTrace(t, 3, "pimdm", a, 6)
			for run := 2; run <= 3; run++ {
				diffTraces(t, fmt.Sprintf("run 1 vs run %d", run), first, multiGroupTrace(t, 3, "pimdm", a, 6))
			}
		})
	}
}
