package topo

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFigure1MatchesPaper(t *testing.T) {
	g := Figure1()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Links) != 6 || len(g.Routers) != 5 {
		t.Fatalf("got %d links, %d routers", len(g.Links), len(g.Routers))
	}
	wantHA := map[string]string{"L1": "A", "L2": "B", "L3": "C", "L4": "D", "L5": "D", "L6": "E"}
	for li, l := range g.Links {
		if !l.LAN {
			t.Errorf("%s not a LAN", l.Name)
		}
		if got := g.Routers[g.HomeAgent[li]].Name; got != wantHA[l.Name] {
			t.Errorf("%s home agent %s, want %s", l.Name, got, wantHA[l.Name])
		}
	}
	// D is the paper's three-way junction.
	if got := len(g.Routers[3].Links); got != 3 {
		t.Errorf("router D attaches %d links, want 3", got)
	}
}

func TestGeneratedFamiliesAreValid(t *testing.T) {
	for _, family := range []string{"tree", "grid", "waxman", "ba"} {
		for _, n := range []int{1, 2, 5, 16, 33, 64} {
			for seed := int64(1); seed <= 2; seed++ {
				g, err := FromSpec(family, n, seed)
				if err != nil {
					t.Fatalf("%s/%d/%d: %v", family, n, seed, err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s/%d/%d: %v", family, n, seed, err)
				}
				if len(g.Routers) != n {
					t.Fatalf("%s/%d: %d routers", family, n, len(g.Routers))
				}
				lans := g.LANs()
				if len(lans) != n {
					t.Fatalf("%s/%d: %d LANs, want one per router", family, n, len(lans))
				}
				for _, li := range lans {
					if ha := g.HomeAgent[li]; ha < 0 {
						t.Fatalf("%s/%d: LAN %s without home agent", family, n, g.Links[li].Name)
					}
				}
				if !g.Connected() {
					t.Fatalf("%s/%d/%d: disconnected", family, n, seed)
				}
			}
		}
	}
	// Line is not a FromSpec family (its n routers share n+1 LANs and no
	// core links), but it must pass the same structural checks.
	for _, n := range []int{1, 2, 5, 16, 33, 64} {
		g := Line(n)
		if err := g.Validate(); err != nil {
			t.Fatalf("line/%d: %v", n, err)
		}
		if len(g.Routers) != n || len(g.LANs()) != n+1 || g.CoreEdges() != 0 {
			t.Fatalf("line/%d: %d routers, %d LANs, %d core links", n, len(g.Routers), len(g.LANs()), g.CoreEdges())
		}
		for ri, r := range g.Routers {
			if !reflect.DeepEqual(r.Links, []int{ri, ri + 1}) {
				t.Fatalf("line/%d: router %s attaches %v", n, r.Name, r.Links)
			}
		}
		for li, ha := range g.HomeAgent {
			if want := max(li-1, 0); ha != want {
				t.Fatalf("line/%d: %s home agent %d, want %d", n, g.Links[li].Name, ha, want)
			}
		}
	}
}

func TestTreeAndGridShape(t *testing.T) {
	g := Tree(13, 3)
	if got := g.CoreEdges(); got != 12 {
		t.Errorf("tree of 13: %d core edges, want 12", got)
	}
	g = Grid(3, 4)
	// 3x4 mesh: 3*3 horizontal + 2*4 vertical = 17 core edges.
	if got := g.CoreEdges(); got != 17 {
		t.Errorf("3x4 grid: %d core edges, want 17", got)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, family := range []string{"tree", "grid", "waxman", "ba"} {
		a, _ := FromSpec(family, 40, 7)
		b, _ := FromSpec(family, 40, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different graphs", family)
		}
	}
	// The random families must actually respond to the seed.
	for _, family := range []string{"waxman", "ba"} {
		a, _ := FromSpec(family, 40, 7)
		b, _ := FromSpec(family, 40, 8)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 produced identical graphs", family)
		}
	}
}

func TestFromSpecRejectsUnknown(t *testing.T) {
	if _, err := FromSpec("torus", 9, 1); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := FromSpec("tree", 0, 1); err == nil {
		t.Error("zero routers accepted")
	}
}

func TestWorkloadProperties(t *testing.T) {
	g, _ := FromSpec("grid", 16, 1)
	spec := WorkloadSpec{
		MNs: 200, Sources: 3, MemberFrac: 0.4,
		MeanDwell: 30 * time.Second,
		Start:     10 * time.Second,
		Horizon:   5 * time.Minute,
		Seed:      42,
	}
	w, err := GenWorkload(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	lan := map[int]bool{}
	for _, li := range g.LANs() {
		lan[li] = true
	}
	members := 0
	for _, m := range w.MNs {
		if !lan[m.Home] {
			t.Fatalf("%s homed on non-LAN link %d", m.Name, m.Home)
		}
		if m.Member {
			members++
		}
	}
	if frac := float64(members) / float64(len(w.MNs)); frac < 0.25 || frac > 0.55 {
		t.Errorf("member fraction %.2f far from requested 0.4", frac)
	}
	for _, s := range w.Sources {
		if !lan[s.Link] {
			t.Fatalf("%s on non-LAN link %d", s.Name, s.Link)
		}
	}
	cur := make(map[int]int)
	for i, m := range w.MNs {
		cur[i] = m.Home
	}
	var prev time.Duration
	for _, mv := range w.Moves {
		if mv.At < prev {
			t.Fatal("moves not sorted by time")
		}
		prev = mv.At
		if mv.At < spec.Start || mv.At >= spec.Horizon {
			t.Fatalf("move at %v outside [%v, %v)", mv.At, spec.Start, spec.Horizon)
		}
		if !lan[mv.To] {
			t.Fatalf("move target %d not a LAN", mv.To)
		}
		if mv.To == cur[mv.MN] {
			t.Fatalf("mn%d moved to the link it is already on", mv.MN)
		}
		cur[mv.MN] = mv.To
	}
	if len(w.Moves) == 0 {
		t.Fatal("no churn generated")
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	g, _ := FromSpec("tree", 10, 1)
	spec := WorkloadSpec{
		MNs: 50, Sources: 2, MemberFrac: 0.5,
		MeanDwell: 20 * time.Second,
		Start:     10 * time.Second,
		Horizon:   2 * time.Minute,
		Seed:      9,
	}
	a, _ := GenWorkload(g, spec)
	b, _ := GenWorkload(g, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different workloads")
	}
	spec.Seed = 10
	c, _ := GenWorkload(g, spec)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestWorkloadForcesAMember(t *testing.T) {
	g, _ := FromSpec("tree", 4, 1)
	// A tiny population with low density could draw zero members; the
	// generator must force one so the cell still measures delivery.
	w, err := GenWorkload(g, WorkloadSpec{MNs: 2, MemberFrac: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Members()) == 0 {
		t.Fatal("no members despite MemberFrac > 0")
	}
}

func TestSingleLANMeansNoMoves(t *testing.T) {
	g := Tree(1, 2)
	w, err := GenWorkload(g, WorkloadSpec{
		MNs: 5, MemberFrac: 1, MeanDwell: time.Second, Horizon: time.Minute, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Moves) != 0 {
		t.Fatalf("%d moves generated with a single LAN", len(w.Moves))
	}
}

func TestDOTRendersAllElements(t *testing.T) {
	g := Figure1()
	dot := g.DOT()
	for _, want := range []string{"graph \"fig1\"", "\"A\" -- \"L1\"", "HA=D", "\"L6\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	g2, _ := FromSpec("grid", 6, 1)
	dot2 := g2.DOT()
	if !strings.Contains(dot2, "\"R0\" -- \"R1\" [label=\"c0-1\"") {
		t.Errorf("grid DOT missing p2p core edge:\n%s", dot2)
	}
}
