package bench

import (
	"testing"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/checkpoint"
	"mip6mcast/internal/scenario"
)

// BenchmarkRampAmortization prices the chaos warm-prefix fork paths against
// a cold run of the same cell, so `make bench` records what checkpointing
// actually buys:
//
//   - cold: StartChaos (the shared 15 s ramp) + the cell tail, every time —
//     what every cell paid before checkpoints existed.
//   - live-fork: the cell tail only, from an already-warmed run — the
//     daemon's first fork per pooled checkpoint. The delta vs cold is the
//     ramp cost this path amortizes away.
//   - replay-fork: Capture + Restore(replay) + the cell tail. The v1
//     checkpoint format restores by re-executing the deterministic program,
//     so this path honestly costs about as much as cold plus the
//     capture/verify overhead — it buys byte-identical resumability, not
//     wall-clock. A future in-memory snapshot format would move this line
//     toward live-fork.
func BenchmarkRampAmortization(b *testing.B) {
	const cell = "baseline"
	base := mip6mcast.ChaosOptions(mip6mcast.DefaultOptions())
	base.Seed = 1

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mip6mcast.RunChaosCell(mip6mcast.StartChaos(base), cell, ""); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("live-fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			warmed := mip6mcast.StartChaos(base) // the pooled live run: ramp not timed
			b.StartTimer()
			if _, err := mip6mcast.RunChaosCell(warmed, cell, ""); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("replay-fork", func(b *testing.B) {
		b.ReportAllocs()
		warmed := mip6mcast.StartChaos(base)
		cp := checkpoint.Capture(warmed.F, checkpoint.Meta{
			Experiment: "chaos-warm", Seed: base.Seed, Engine: base.EngineName(),
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var forked *mip6mcast.Run
			if _, err := checkpoint.Restore(cp, func() (*scenario.Network, error) {
				forked = mip6mcast.StartChaos(base)
				return forked.F, nil
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := mip6mcast.RunChaosCell(forked, cell, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}
