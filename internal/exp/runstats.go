package exp

import (
	"sync"
	"time"

	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// CellStats reports one completed timeline of a Sweep: one
// (point, replicate) cell. It carries the wall-clock cost of the cell
// plus the scheduler counters of every scenario network the cell built,
// so progress reporters can show events/sec and virtual time as the sweep
// runs.
type CellStats struct {
	// Point and Replicate locate the cell in the sweep.
	Point     int
	Replicate int
	// Label is the point's label.
	Label string
	// Engine is the multicast engine the cell's options selected (always
	// set; "pimdm" unless the experiment switched engines).
	Engine string
	// Wall is the wall-clock time the cell's Run body took.
	Wall time.Duration
	// Vals holds the cell's measured columns as returned by the sweep
	// body (nil for a failed cell). Bodies may compute these from batch
	// samples or from streaming accumulators (metrics.Welford /
	// metrics.Reservoir) — by the time a cell reports, both have been
	// reduced to one float per column.
	Vals map[string]float64
	// Sched aggregates the scheduler counters of every network the cell
	// built: dispatch counts and virtual time summed/maxed across
	// timelines, per-tag timing merged (only present when the base options
	// set Instrument).
	Sched sim.RunStats
	// Err is the cell's failure ("" on success). A panicking timeline is
	// contained to its cell — the sweep's other cells and the process
	// carry on — with the panic value and a trimmed stack recorded here.
	Err string
}

// EventsPerSec is the cell's dispatch rate against wall-clock time.
func (c CellStats) EventsPerSec() float64 {
	if c.Wall <= 0 {
		return 0
	}
	return float64(c.Sched.Dispatched) / c.Wall.Seconds()
}

// progressMu serializes Progress callbacks: cells complete on parallel
// workers, but reporters (stderr printers, aggregators) need not lock.
var progressMu sync.Mutex

// prepareCell wires the context's hooks into one cell's options: the
// OnCell hook (if set) and, when progress reporting is on, an OnNetwork
// wrapper that collects every scheduler the cell builds so reportCell can
// snapshot its counters.
func (c Context) prepareCell(opt *scenario.Options, pt, rep int, scheds *[]*sim.Scheduler) {
	if c.OnCell != nil {
		c.OnCell(pt, rep, opt)
	}
	if c.Progress == nil {
		return
	}
	user := opt.OnNetwork
	opt.OnNetwork = func(f *scenario.Network) {
		*scheds = append(*scheds, f.Scheds()...)
		if user != nil {
			user(f)
		}
	}
}

// reportCell delivers one cell's stats to the Progress callback (no-op
// when reporting is off). Calls are serialized across workers.
func (c Context) reportCell(pt, rep int, label string, wall time.Duration, scheds []*sim.Scheduler, vals map[string]float64, cellErr string) {
	if c.Progress == nil {
		return
	}
	cs := CellStats{Point: pt, Replicate: rep, Label: label, Engine: c.Opt.EngineName(), Wall: wall, Vals: vals, Err: cellErr}
	for _, s := range scheds {
		cs.Sched = MergeRunStats(cs.Sched, s.RunStats())
	}
	progressMu.Lock()
	defer progressMu.Unlock()
	c.Progress(cs)
}

// MergeRunStats folds b into a: dispatch counts and handler wall time sum,
// queue high-water and virtual time take the max (timelines are
// independent, not concatenated), per-tag stats merge by tag. live.Totals
// uses it to aggregate CellStats.Sched across a whole run.
func MergeRunStats(a, b sim.RunStats) sim.RunStats {
	a.Dispatched += b.Dispatched
	a.Wall += b.Wall
	if b.QueueHighWater > a.QueueHighWater {
		a.QueueHighWater = b.QueueHighWater
	}
	if b.Virtual > a.Virtual {
		a.Virtual = b.Virtual
	}
	for _, bt := range b.Tags {
		found := false
		for i := range a.Tags {
			if a.Tags[i].Tag == bt.Tag {
				a.Tags[i].Events += bt.Events
				a.Tags[i].Wall += bt.Wall
				found = true
				break
			}
		}
		if !found {
			a.Tags = append(a.Tags, bt)
		}
	}
	return a
}
