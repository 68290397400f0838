package scenario

import (
	"testing"
	"time"

	"mip6mcast/internal/topo"
)

// Options.Instrument times every region, not only region 0: on a 4-region
// build, the per-tag event counts summed over Scheds() account for every
// event the regions dispatched.
func TestInstrumentCoversEveryRegion(t *testing.T) {
	g, err := topo.FromSpec("ba", 40, 7)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	opt := DefaultOptions()
	opt.Seed = 7
	opt.Shards = 4
	opt.ShardWorkers = 1
	opt.CoreLinkDelay = 2 * time.Millisecond
	opt.Instrument = true
	f := Build(g, opt)
	if n := len(f.Scheds()); n != 4 {
		t.Fatalf("ba-r40 at shards=4 built %d regions, want 4", n)
	}
	f.Run(5 * time.Second)

	var tagged, processed uint64
	for i, s := range f.Scheds() {
		if s.Processed() == 0 {
			t.Fatalf("region %d dispatched no events", i)
		}
		processed += s.Processed()
		for _, ts := range s.RunStats().Tags {
			tagged += ts.Events
		}
	}
	if tagged != processed {
		t.Fatalf("tag tables count %d events, regions dispatched %d", tagged, processed)
	}
}
