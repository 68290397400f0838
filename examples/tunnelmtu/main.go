// Tunnel MTU: the implementation issue the paper's conclusion flags for
// the proposed uni-directional tunnels. Encapsulation adds 40 bytes, so a
// datagram that fits every link natively can exceed the MTU once tunneled:
// the home agent must fragment the outer packet, and under loss every
// fragment must survive — amplifying the tunnel receiver's datagram loss
// while local receivers are unaffected.
//
//	go run ./examples/tunnelmtu
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	opt := mip6mcast.FastMLDOptions(30)
	smtu := func(payloads []int, loss float64) mip6mcast.ExpResult {
		res, err := mip6mcast.RunExperiment("smtu", mip6mcast.ExpContext{Opt: opt},
			mip6mcast.ExpParams{"payloads": payloads, "losses": []float64{loss}})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("Sweeping datagram payload across the tunnel-MTU boundary (links: 1500 B).")
	fmt.Println("R3 receives via its home agent's tunnel on Link 6; R1 receives locally.")
	fmt.Println()

	fmt.Print(smtu([]int{1200, 1412, 1413, 1432}, 0).Render())
	fmt.Println()
	fmt.Println("One byte across the boundary (outer 1500 -> 1501) doubles the tunnel's")
	fmt.Println("frame count: the home agent fragments, the mobile node reassembles.")
	fmt.Println()

	lossy := smtu([]int{1412, 1413}, 0.05)
	fmt.Print(lossy.Render())
	fmt.Println()
	below, above := lossy.Stats[0], lossy.Stats[1]
	fmt.Printf("With 5%% per-link loss, the same one-byte step costs the tunnel receiver\n")
	fmt.Printf("%.1f%% of its datagrams (%.3f -> %.3f delivery) — fragmentation means every\n",
		100*(below.Mean("deliv-tunnel")-above.Mean("deliv-tunnel")), below.Mean("deliv-tunnel"), above.Mean("deliv-tunnel"))
	fmt.Printf("fragment must survive. The local receiver is unaffected by the boundary\n")
	fmt.Printf("(%.3f vs %.3f).\n", below.Mean("deliv-local"), above.Mean("deliv-local"))
}
