// Mobile receiver: the paper's Figures 2 and 3 side by side. Receiver 3
// moves away from its home link while a video-like stream is running; the
// example compares joining locally on the foreign link against receiving
// through the home agent's tunnel, with and without the paper's
// recommended optimizations.
//
//	go run ./examples/mobilereceiver
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("Mobile receiver: R3 moves while streaming (paper Figures 2 & 3)")
	fmt.Println()

	// Approach A (Figure 2): local membership on the foreign link. The f2
	// experiment measures both report policies (rows 0 and 1). First with
	// the default configuration and the paper's recommended unsolicited
	// Reports...
	f2 := artifact("f2", mip6mcast.DefaultOptions()).([3]mip6mcast.F2Result)
	res := f2[0]
	fmt.Printf("local membership, unsolicited reports:\n")
	fmt.Printf("  join delay  %12s   (re-subscription is immediate)\n", res.JoinDelay)
	fmt.Printf("  leave delay %12s   (old link carries garbage until T_MLI)\n", res.LeaveDelay)
	fmt.Printf("  wasted      %9d B on the abandoned home link\n\n", res.WastedBytes)

	// ...then the pathological draft-default behavior: wait for a Query.
	res = f2[1]
	fmt.Printf("local membership, waiting for the periodic Query (T_Query=125s):\n")
	fmt.Printf("  join delay  %12s   <- the paper calls this \"far too high\"\n\n", res.JoinDelay)

	// The paper's fix: decrease T_Query (here to 10 s).
	res = artifact("f2", mip6mcast.FastMLDOptions(10)).([3]mip6mcast.F2Result)[1]
	fmt.Printf("local membership, tuned T_Query=10s (paper §4.4):\n")
	fmt.Printf("  join delay  %12s\n", res.JoinDelay)
	fmt.Printf("  leave delay %12s\n\n", res.LeaveDelay)

	// Approach B (Figure 3): membership held at the home agent, traffic
	// tunneled — no MLD timer in the path, but suboptimal routing and
	// per-packet tunnel overhead. The f3 experiment's rows 0 and 1 are the
	// paper's two ways of signaling membership to the home agent.
	f3 := artifact("f3", mip6mcast.DefaultOptions()).([3]mip6mcast.F3Result)
	for i, name := range []string{
		"Multicast Group List sub-option (paper Fig. 5)",
		"MLD Reports through the tunnel",
	} {
		r3 := f3[i]
		fmt.Printf("home-agent tunnel via %s:\n", name)
		fmt.Printf("  join delay  %12s   (just movement detection + binding update)\n", r3.JoinDelay)
		fmt.Printf("  path length %12.1f router hops (optimal here: %d — R3 stands next to the sender)\n",
			r3.MeanHops, r3.OptimalHops)
		fmt.Printf("  tunnel cost %9d B of encapsulation overhead\n\n", r3.TunnelOverheadBytes)
	}
}

// artifact runs one registered experiment and returns its typed result.
func artifact(name string, opt mip6mcast.Options) any {
	res, err := mip6mcast.RunExperiment(name, mip6mcast.ExpContext{Opt: opt}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return res.Artifact
}
