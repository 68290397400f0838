//go:build !race

// Allocation gate for Classify, which the accountant runs on every
// transmission of every link. Excluded under -race; see scripts/check.sh
// for the non-race pass.

package trace_test

import (
	"testing"

	"mip6mcast/internal/trace"
)

func TestClassifyAllocFree(t *testing.T) {
	for _, s := range kindSamples(t) {
		ev, _ := describeFrame(t, s.pkt)
		if allocs := testing.AllocsPerRun(100, func() { trace.Classify(ev.Pkt) }); allocs != 0 {
			t.Errorf("Classify of a %s packet allocates %v objects", s.describe, allocs)
		}
	}
}
