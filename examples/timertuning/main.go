// Timer tuning: the paper's §4.4 recommendation quantified. Sweeping the
// MLD Query Interval T_Query shows the tradeoff between join/leave delay of
// mobile receivers and MLD signaling bandwidth — and that "the bandwidth
// cost for this tuning step is small, compared with the bandwidth saving
// due to a lower leave delay".
//
//	go run ./examples/timertuning
package main

import (
	"fmt"
	"log"
	"slices"

	"mip6mcast"
)

func main() {
	fmt.Println("MLD timer optimization (paper §4.4): T_Query sweep, 3 replicate seeds")
	fmt.Println()

	// Footnote 5: T_Query must not drop below T_RespDel (10 s default);
	// FastMLDOptions clamps accordingly for the 5 s point.
	intervals := []int{5, 10, 20, 30, 60, 125}

	sweep := func(unsolicited bool) mip6mcast.ExpResult {
		res, err := mip6mcast.RunExperiment("s44",
			mip6mcast.ExpContext{Opt: mip6mcast.DefaultOptions(), Replicates: 3},
			mip6mcast.ExpParams{"tquery": intervals, "unsolicited": unsolicited})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("-- mobile receiver waits for the periodic Query (no unsolicited reports) --")
	first := sweep(false)
	fmt.Print(first.Render())
	fmt.Println()

	fmt.Println("-- with the paper's unsolicited Reports after movement --")
	fmt.Print(sweep(true).Render())
	fmt.Println()

	// The paper's punchline, computed from the first sweep's replicate
	// means: bytes wasted by the leave delay at T_Query=125 s versus the
	// extra query/report traffic at T_Query=10 s.
	mean := func(tquery int, col string) float64 {
		return first.Stats[slices.Index(intervals, tquery)].Mean(col)
	}
	saved := (mean(125, "waste(B)") - mean(10, "waste(B)")) / 1000
	extraPerHour := (mean(10, "mld(B/h)") - mean(125, "mld(B/h)")) / 1000
	fmt.Printf("one receiver movement wastes %.1f kB less at T_Query=10s;\n", saved)
	fmt.Printf("the price is %.1f kB/h of extra MLD signaling on the whole network.\n", extraPerHour)
}
