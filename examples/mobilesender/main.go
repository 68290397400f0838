// Mobile sender: the paper's Figure 4 and §4.3.1. Sender S moves to Link 6
// mid-stream. Sending locally makes PIM-DM treat the care-of address as a
// brand-new source — a full flood builds a second tree while the stale one
// is held for the 210 s data timeout. Reverse-tunneling to the home agent
// keeps the original tree intact at the cost of encapsulation.
//
//	go run ./examples/mobilesender
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("Mobile sender: S moves to Link 6 mid-stream (paper Figure 4 / §4.3.1)")
	fmt.Println()

	// The f4 experiment's rows 0 and 1 are the two send modes.
	f4, err := mip6mcast.RunExperiment("f4", mip6mcast.ExpContext{Opt: mip6mcast.DefaultOptions()}, nil)
	if err != nil {
		log.Fatal(err)
	}
	all := f4.Artifact.([3]mip6mcast.F4Result)
	tun, loc := all[0], all[1]

	fmt.Printf("%-34s %18s %18s\n", "", "reverse tunnel", "local sending")
	row := func(label, a, b string) { fmt.Printf("%-34s %18s %18s\n", label, a, b) }
	row("new (S,G) entries flooded",
		fmt.Sprint(tun.NewTreesBuilt), fmt.Sprint(loc.NewTreesBuilt))
	row("peak simultaneous (S,G) state",
		fmt.Sprint(tun.PeakSGEntries), fmt.Sprint(loc.PeakSGEntries))
	row("tunnel overhead (bytes)",
		fmt.Sprint(tun.TunnelOverheadBytes), fmt.Sprint(loc.TunnelOverheadBytes))
	row("worst receiver gap",
		tun.MaxGapAfterMove.String(), loc.MaxGapAfterMove.String())
	fmt.Println()

	// §4.3.1: a sender hopping across ON-TREE links triggers spurious
	// assert processes during the window before it configures its new
	// care-of address (it keeps sending with a stale source address).
	fmt.Println("Sender hopping across on-tree links (local sending, paper §4.3.1):")
	s431, err := mip6mcast.RunExperiment("s431", mip6mcast.ExpContext{Opt: mip6mcast.DefaultOptions()},
		mip6mcast.ExpParams{"moves": []int{1, 2, 4}, "dwell": 45})
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range s431.Stats {
		res, ok := pt.Raw[0].(mip6mcast.S431Result)
		if !ok {
			log.Fatalf("%s: %s", pt.Label, pt.Errs[0])
		}
		fmt.Printf("  %d moves: %5.1f kB re-flooded onto pruned links, %d asserts, "+
			"%d stale+live trees at peak\n",
			res.Moves, float64(res.RefloodBytes)/1000, res.Asserts, res.PeakSG)
	}
}
