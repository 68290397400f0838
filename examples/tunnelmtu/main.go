// Tunnel MTU: the implementation issue the paper's conclusion flags for
// the proposed uni-directional tunnels. Encapsulation adds 40 bytes, so a
// datagram that fits every link natively can exceed the MTU once tunneled:
// the home agent must fragment the outer packet, and under loss every
// fragment must survive, which should amplify the tunnel receiver's
// datagram loss while local receivers are unaffected. The lossy sweep runs
// several replicates per point and reports each delivery mean with its
// 95% confidence interval.
//
//	go run ./examples/tunnelmtu
package main

import (
	"fmt"
	"log"
	"math"

	"mip6mcast"
)

// replicates is how many independently seeded timelines the lossy sweep
// runs per point: a lost control-plane refresh (MLD Report, Binding
// Update) can black-hole the tunnel for tens of seconds of one timeline,
// so a single run says little about the loss amplification.
const replicates = 10

func main() {
	opt := mip6mcast.FastMLDOptions(30)
	smtu := func(payloads []int, loss float64, reps int) mip6mcast.ExpResult {
		res, err := mip6mcast.RunExperiment("smtu", mip6mcast.ExpContext{Opt: opt, Replicates: reps},
			mip6mcast.ExpParams{"payloads": payloads, "losses": []float64{loss}})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("Sweeping datagram payload across the tunnel-MTU boundary (links: 1500 B).")
	fmt.Println("R3 receives via its home agent's tunnel on Link 6; R1 receives locally.")
	fmt.Println()

	fmt.Print(smtu([]int{1200, 1412, 1413, 1432}, 0, 1).Render())
	fmt.Println()
	fmt.Println("One byte across the boundary (outer 1500 -> 1501) doubles the tunnel's")
	fmt.Println("frame count: the home agent fragments, the mobile node reassembles.")
	fmt.Println()

	lossy := smtu([]int{1412, 1413}, 0.05, replicates)
	fmt.Print(lossy.Render())
	fmt.Println()
	below, above := lossy.Stats[0].Cols["deliv-tunnel"], lossy.Stats[1].Cols["deliv-tunnel"]
	fmt.Printf("With 5%% per-link loss, over %d replicates, the tunnel receiver gets\n", replicates)
	fmt.Printf("%.3f ± %.3f of its datagrams below the boundary and %.3f ± %.3f above\n",
		below.Mean(), below.CI95(), above.Mean(), above.CI95())
	fmt.Printf("it (mean ± 95%% CI).\n")
	if drop := below.Mean() - above.Mean(); drop > 0 {
		fmt.Printf("The one-byte step costs it %.1f points of delivery: fragmentation\n", 100*drop)
		fmt.Printf("means every fragment must survive.")
	} else {
		fmt.Printf("It receives %.1f points more above the boundary, so this sweep shows\n", -100*drop)
		fmt.Printf("no loss amplification from fragmentation.")
	}
	if math.Abs(below.Mean()-above.Mean()) <= below.CI95()+above.CI95() {
		fmt.Printf(" The intervals overlap: the\ndifference is within the replicates' spread.")
	}
	fmt.Println()
	l0, l1 := lossy.Stats[0].Cols["deliv-local"], lossy.Stats[1].Cols["deliv-local"]
	fmt.Printf("The local receiver does not cross the boundary (%.3f ± %.3f vs %.3f ± %.3f).\n",
		l0.Mean(), l0.CI95(), l1.Mean(), l1.CI95())
}
