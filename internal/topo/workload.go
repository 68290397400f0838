package topo

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// MN is one placed mobile node. Home indexes the LAN it homes on;
// Member marks it as a multicast group listener.
type MN struct {
	Name   string
	Home   int
	Member bool
}

// Source is one placed multicast sender.
type Source struct {
	Name string
	Link int // LAN index the source sits on (sources are stationary)
}

// Move is one scheduled handover: at virtual time At (since simulation
// start) mobile node MNs[MN] reattaches to LAN To.
type Move struct {
	At time.Duration
	MN int
	To int
}

// Workload is a placed population plus its churn schedule. Moves are
// sorted by (At, MN); scheduling them in slice order therefore yields
// the same event timeline on every run.
type Workload struct {
	MNs     []MN
	Sources []Source
	Moves   []Move
}

// Members returns the indices of member MNs.
func (w *Workload) Members() []int {
	var out []int
	for i, m := range w.MNs {
		if m.Member {
			out = append(out, i)
		}
	}
	return out
}

// WorkloadSpec parameterizes GenWorkload.
type WorkloadSpec struct {
	MNs     int
	Sources int
	// MemberFrac is the probability each MN joins the group (the
	// paper's "member density"). At least one MN is forced to join
	// whenever MemberFrac > 0, so small cells still measure delivery.
	MemberFrac float64
	// MeanDwell is the mean of the exponential (Poisson-process) dwell
	// time between an MN's successive handovers.
	MeanDwell time.Duration
	// Start is the earliest possible move (leave room for SLAAC, MLD
	// and PIM to settle); Horizon bounds the schedule — no move is
	// generated at or after it.
	Start   time.Duration
	Horizon time.Duration
	Seed    int64
	// LinkRegion, when non-nil, confines churn to partition regions (see
	// PartitionGraph): each MN's movement targets are the LANs in its home
	// LAN's region, and an MN whose region has a single LAN never moves.
	// A sharded simulation cannot migrate a node's event state between
	// region schedulers mid-timeline, so the workload keeps every mobile
	// node inside its home region. With one region (or nil) the targets
	// and the draw sequence are identical to the unconstrained generator.
	LinkRegion []int
}

// GenWorkload places spec.MNs mobile nodes and spec.Sources senders on
// g's LANs (round-robin homes, uniform move targets) and draws each
// MN's handover schedule as a Poisson process with mean dwell
// spec.MeanDwell. The generator owns its rand.Rand seeded from
// spec.Seed: it never touches the simulation scheduler's RNG, so
// identical specs give identical workloads regardless of when or where
// they are generated.
func GenWorkload(g *Graph, spec WorkloadSpec) (*Workload, error) {
	lans := g.LANs()
	if len(lans) == 0 {
		return nil, fmt.Errorf("topo %q: no LANs to place hosts on", g.Name)
	}
	if spec.MNs < 0 || spec.Sources < 0 {
		return nil, fmt.Errorf("topo: negative population (%d MNs, %d sources)", spec.MNs, spec.Sources)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	w := &Workload{}

	anyMember := false
	for i := 0; i < spec.MNs; i++ {
		m := MN{
			Name:   fmt.Sprintf("mn%d", i),
			Home:   lans[i%len(lans)],
			Member: rng.Float64() < spec.MemberFrac,
		}
		anyMember = anyMember || m.Member
		w.MNs = append(w.MNs, m)
	}
	if !anyMember && spec.MemberFrac > 0 && spec.MNs > 0 {
		w.MNs[0].Member = true
	}
	for s := 0; s < spec.Sources; s++ {
		w.Sources = append(w.Sources, Source{
			Name: fmt.Sprintf("src%d", s),
			Link: lans[s%len(lans)],
		})
	}

	if spec.MeanDwell > 0 && len(lans) > 1 {
		var regionLANs map[int][]int
		if spec.LinkRegion != nil {
			regionLANs = map[int][]int{}
			for _, li := range lans {
				r := spec.LinkRegion[li]
				regionLANs[r] = append(regionLANs[r], li)
			}
		}
		for i := range w.MNs {
			cur := w.MNs[i].Home
			targets := lans
			if regionLANs != nil {
				targets = regionLANs[spec.LinkRegion[cur]]
			}
			if len(targets) < 2 {
				continue // region-bound MN with nowhere to roam
			}
			t := spec.Start + expDur(rng, spec.MeanDwell)
			for t < spec.Horizon {
				to := targets[rng.Intn(len(targets))]
				for to == cur {
					to = targets[rng.Intn(len(targets))]
				}
				w.Moves = append(w.Moves, Move{At: t, MN: i, To: to})
				cur = to
				t += expDur(rng, spec.MeanDwell)
			}
		}
	}
	// (At, MN) is a total order: one MN's moves have strictly increasing
	// At, so the sorted schedule does not depend on the sort algorithm.
	slices.SortStableFunc(w.Moves, func(a, b Move) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.MN, b.MN)
	})
	return w, nil
}

func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}
