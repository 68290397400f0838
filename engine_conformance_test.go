package mip6mcast

// Engine conformance: every engine registered with internal/scenario must
// deliver the same observable multicast service on the Figure 1 network —
// membership changes converge, grafts after handover resolve, crashed
// routers rebuild state, and convergence survives bursty loss. The table
// runs identically against each registered engine, so adding an engine to
// the registry automatically puts it under this contract.

import (
	"testing"
	"time"

	"mip6mcast/internal/check"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
)

// conformanceRun builds the harness for one engine with chaos-style fast
// timers, a recorder for liveness checks, and a fixed seed.
func conformanceRun(eng string) (*Run, *obs.Recorder) {
	opt := chaosTune(FastMLDOptions(10))
	opt.Engine = eng
	opt.Seed = 7
	rec := obs.NewRecorder(nil)
	opt.Obs = rec
	return NewRun(opt, LocalMembership, 200*time.Millisecond, 64), rec
}

// expectConverged asserts the full internal/check convergence contract for
// the given member set.
func expectConverged(t *testing.T, f *scenario.Network, members map[string]bool) {
	t.Helper()
	e := check.Expectation{
		Source:  f.Hosts["S"].MN.HomeAddress,
		Group:   Group,
		Members: members,
	}
	for _, v := range check.Converged(f, e) {
		t.Errorf("violation: %s", v)
	}
}

func allMembers() map[string]bool {
	return map[string]bool{"R1": true, "R2": true, "R3": true}
}

func TestEngineConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *Run, rec *obs.Recorder)
	}{
		{name: "join-leave", run: func(t *testing.T, r *Run, rec *obs.Recorder) {
			f := r.F
			f.Run(30 * time.Second)
			expectConverged(t, f, allMembers())
			r.Services["R3"].Leave(Group)
			f.Run(30 * time.Second)
			expectConverged(t, f, map[string]bool{"R1": true, "R2": true})
			r.Services["R3"].Join(Group)
			f.Run(30 * time.Second)
			expectConverged(t, f, allMembers())
		}},
		{name: "move-graft", run: func(t *testing.T, r *Run, rec *obs.Recorder) {
			f := r.F
			f.Run(15 * time.Second)
			r.MoveHost("R3", "L5") // away: the tree must graft toward L5
			f.Run(30 * time.Second)
			expectConverged(t, f, allMembers())
			r.MoveHost("R3", "L4") // home again
			f.Run(30 * time.Second)
			expectConverged(t, f, allMembers())
		}},
		{name: "crash-restart", run: func(t *testing.T, r *Run, rec *obs.Recorder) {
			f := r.F
			f.Run(15 * time.Second)
			f.CrashRouter("D") // R3's only router: all its state is lost
			f.Run(8 * time.Second)
			f.RestartRouter("D")
			f.Run(60 * time.Second)
			expectConverged(t, f, allMembers())
		}},
		{name: "ge-loss-churn", run: func(t *testing.T, r *Run, rec *obs.Recorder) {
			f := r.F
			f.Run(15 * time.Second)
			imp := &netem.Impairment{PGB: 0.05, PBG: 0.25, GoodLoss: 0.01, BadLoss: 0.5}
			for _, l := range f.Links {
				l.Impair = imp
			}
			r.Services["R3"].Leave(Group)
			f.Run(8 * time.Second)
			r.Services["R3"].Join(Group)
			f.Run(7 * time.Second)
			r.MoveHost("R3", "L5")
			f.Run(15 * time.Second)
			r.MoveHost("R3", "L4")
			f.Run(10 * time.Second)
			for _, l := range f.Links {
				l.Impair = nil
			}
			f.Run(75 * time.Second)
			expectConverged(t, f, allMembers())
			// Graft/sync liveness: under loss every graft (pimdm) or
			// interest declaration (hpimdm) must still resolve via
			// retransmission — no entry may stay graft-pending forever.
			retry := f.Opt.PIM.GraftRetry
			for _, v := range check.GraftLiveness(rec.Events(), retry, 2*time.Second, f.Sched.Now()) {
				t.Errorf("liveness violation: %s", v)
			}
		}},
	}

	engines := scenario.EngineNames()
	if len(engines) < 2 {
		t.Fatalf("engine registry has %v, want at least pimdm and hpimdm", engines)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					r, rec := conformanceRun(eng)
					tc.run(t, r, rec)
					if got := r.F.Routers["A"].Engine.Name(); got != eng {
						t.Errorf("built engine %q, want %q", got, eng)
					}
				})
			}
		})
	}
}

// The sweeps run every engine through the same cells; their outcome
// structs must say which engine produced each row.
func TestEngineThreadedThroughOutcomes(t *testing.T) {
	opt := chaosTune(FastMLDOptions(10))
	opt.Engine = "hpimdm"
	opt.Seed = 3
	out := runChaosOne(opt, LocalMembership, chaosCell{name: "baseline"}, "")
	if out.Engine != "hpimdm" {
		t.Errorf("ChaosOutcome.Engine = %q, want hpimdm", out.Engine)
	}
	if len(out.Violations) != 0 {
		t.Errorf("baseline cell under hpimdm: %v", out.Violations)
	}
	if out.PIMBytes == 0 {
		t.Error("ChaosOutcome.PIMBytes = 0, want control traffic accounted")
	}
	if out.ConvTime <= 0 || out.ConvTime >= 75 {
		t.Errorf("ChaosOutcome.ConvTime = %v, want within the quiesce window", out.ConvTime)
	}
}
