package mip6mcast

import (
	"testing"
	"time"

	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
)

// proxyConformanceRun builds the harness under the proxy-hierarchy
// approach with the given anchor engine and chaos-style fast timers.
// NewRun defaults ProxyDepth, so Figure 1 peels into the {B:A} and {D:E}
// domains: A and E run the mldproxy engine, B/C/D keep the anchor engine.
func proxyConformanceRun(eng string) (*Run, *obs.Recorder) {
	opt := chaosTune(FastMLDOptions(10))
	opt.Engine = eng
	opt.Seed = 11
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	return NewRun(opt, ProxyHierarchy, 200*time.Millisecond, 64), rec
}

// TestProxyHierarchyConformance runs the proxy-hierarchy approach through
// the same service contract the engine-conformance table asserts for the
// flat engines: delivery to every receiver, convergence after joins,
// leaves, handovers (anchor-local and home-routed) and crash/restart of
// both a proxy and its anchor — with zero invariant violations, for both
// anchor engines.
func TestProxyHierarchyConformance(t *testing.T) {
	for _, eng := range scenario.EngineNames() {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			t.Run("delivery", func(t *testing.T) {
				r, _ := proxyConformanceRun(eng)
				f := r.F
				if f.Proxy.Empty() {
					t.Fatal("proxy approach built no plan")
				}
				if got := f.Routers["A"].Engine.Name(); got != "mldproxy" {
					t.Fatalf("A engine = %q", got)
				}
				if got := f.Routers["B"].Engine.Name(); got != eng {
					t.Fatalf("B engine = %q, want %q", got, eng)
				}
				f.Run(30 * time.Second)
				for name, p := range r.Probes {
					if p.Count() == 0 {
						t.Errorf("probe %s empty", name)
					}
				}
				expectConverged(t, f, allMembers())
			})

			t.Run("anchor-local-handover", func(t *testing.T) {
				r, _ := proxyConformanceRun(eng)
				f := r.F
				f.Run(15 * time.Second)
				// L4 and L6 both lie inside D's domain: the move must be
				// classified anchor-local and R3 re-delivered through
				// proxy E without touching its home agent.
				at := r.MoveHost("R3", "L6")
				f.Run(30 * time.Second)
				if local, home := f.HandoverCounts(); local != 1 || home != 0 {
					t.Fatalf("handovers local=%d home=%d after an intra-domain move", local, home)
				}
				if d, ok := r.JoinDelay("R3", at); !ok {
					t.Error("R3 never received below proxy E")
				} else if d > 15*time.Second {
					t.Errorf("rejoin below proxy E took %v", d)
				}
				expectConverged(t, f, allMembers())

				// L6 (domain D) to L1 (domain B) crosses anchors.
				r.MoveHost("R3", "L1")
				f.Run(30 * time.Second)
				if local, home := f.HandoverCounts(); local != 1 || home != 1 {
					t.Fatalf("handovers local=%d home=%d after a cross-domain move", local, home)
				}
				expectConverged(t, f, allMembers())
			})

			t.Run("leave-clears-aggregate", func(t *testing.T) {
				r, _ := proxyConformanceRun(eng)
				f := r.F
				f.Run(20 * time.Second)
				if f.ProxyOf("A").EntryCount() == 0 {
					t.Fatal("A holds no aggregate while R1 is a member below it")
				}
				r.Services["R1"].Leave(Group)
				f.Run(30 * time.Second)
				if n := f.ProxyOf("A").EntryCount(); n != 0 {
					t.Errorf("A still holds %d aggregates after the last member left", n)
				}
				expectConverged(t, f, map[string]bool{"R2": true, "R3": true})
			})

			t.Run("crash-restart-proxy", func(t *testing.T) {
				r, _ := proxyConformanceRun(eng)
				f := r.F
				f.Run(15 * time.Second)
				f.CrashRouter("A") // R1's only router: the whole domain state dies
				f.Run(8 * time.Second)
				f.RestartRouter("A")
				f.Run(60 * time.Second)
				if got := f.Routers["A"].Engine.Name(); got != "mldproxy" {
					t.Fatalf("restart rebuilt engine %q", got)
				}
				expectConverged(t, f, allMembers())
			})

			t.Run("crash-restart-anchor", func(t *testing.T) {
				r, _ := proxyConformanceRun(eng)
				f := r.F
				f.Run(15 * time.Second)
				f.CrashRouter("B") // proxy A's anchor: the domain loses its PIM feed
				f.Run(8 * time.Second)
				f.RestartRouter("B")
				f.Run(60 * time.Second)
				expectConverged(t, f, allMembers())
			})
		})
	}
}
