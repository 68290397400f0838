package sim

import (
	"context"
	"runtime/pprof"
	"sort"
	"time"
)

// Scheduler instrumentation. Two levels exist:
//
//   - Always on, free: the event-queue high-water mark and the processed
//     count (a length compare in At and an increment in Step).
//   - Opt-in via Instrument: per-handler-tag wall-clock timing, which
//     wraps every dispatched event in a time.Now() pair. Leave it off on
//     hot paths that are being benchmarked.
//
// Tags are attributed at scheduling time: an event inherits the tag active
// when it was scheduled (see PushTag), so a PIM retransmission timer armed
// inside a tagged PIM handler reports as "pim" even though the arming ran
// inside a link-delivery event.

// TagStat is the dispatch accounting for one handler tag.
type TagStat struct {
	Tag    string
	Events uint64
	Wall   time.Duration
}

// RunStats snapshots a scheduler's instrumentation counters.
type RunStats struct {
	// Dispatched is the number of events executed.
	Dispatched uint64
	// QueueHighWater is the most events ever queued at once. Canceled
	// events and superseded timer expiries leave the queue immediately,
	// so it counts live events only.
	QueueHighWater int
	// Virtual is the current virtual time.
	Virtual Time
	// Wall is total wall-clock time spent inside event handlers (zero
	// unless Instrument was called).
	Wall time.Duration
	// Tags breaks Dispatched/Wall down by handler tag, sorted by tag
	// (empty unless Instrument was called). The empty tag collects events
	// scheduled outside any PushTag bracket.
	Tags []TagStat
}

// SpeedUp is the virtual-time / wall-time ratio (how much faster than real
// time the simulation ran). Zero when no wall time was measured.
func (rs RunStats) SpeedUp() float64 {
	if rs.Wall <= 0 {
		return 0
	}
	return float64(rs.Virtual) / float64(rs.Wall)
}

type instr struct {
	tags map[string]*TagStat
}

func (in *instr) record(tag string, d time.Duration) {
	ts := in.tags[tag]
	if ts == nil {
		ts = &TagStat{Tag: tag}
		in.tags[tag] = ts
	}
	ts.Events++
	ts.Wall += d
}

// Instrument enables per-tag wall-clock timing of event dispatch. Calling
// it again is a no-op (accumulated timings are kept).
func (s *Scheduler) Instrument() {
	if s.instr == nil {
		s.instr = &instr{tags: map[string]*TagStat{}}
	}
}

// Instrumented reports whether per-tag timing is enabled.
func (s *Scheduler) Instrumented() bool { return s.instr != nil }

// LabelProfiles attaches runtime/pprof goroutine labels during event
// dispatch: while an event runs, the driving goroutine carries the label
// tag=<handler tag> ("untagged" for events scheduled outside any PushTag
// bracket), so CPU profiles collected through /debug/pprof attribute
// samples to pim/mld/mipv6/link work instead of one opaque dispatch loop.
//
// The label set for each tag is built once and cached, and labels are
// re-applied only when consecutive events carry different tags, so the
// steady-state dispatch path stays allocation-free. Calling LabelProfiles
// again is a no-op.
func (s *Scheduler) LabelProfiles() {
	if s.labelCtx == nil {
		s.labelCtx = make(map[string]context.Context)
	}
}

// ProfileLabeled reports whether dispatch-time pprof labeling is enabled.
func (s *Scheduler) ProfileLabeled() bool { return s.labelCtx != nil }

// applyLabel switches the goroutine's pprof labels to tag's cached set,
// building it on first use.
func (s *Scheduler) applyLabel(tag string) {
	ctx, ok := s.labelCtx[tag]
	if !ok {
		name := tag
		if name == "" {
			name = "untagged"
		}
		ctx = pprof.WithLabels(context.Background(), pprof.Labels("tag", name))
		s.labelCtx[tag] = ctx
	}
	pprof.SetGoroutineLabels(ctx)
	s.curLabel = tag
}

// QueueHighWater returns the most events queued at once so far. Only live
// events count: a canceled event or a re-armed timer's old expiry is not
// kept in the queue.
func (s *Scheduler) QueueHighWater() int { return s.hwm }

// PushTag sets the handler tag inherited by events scheduled until the
// matching PopTag, and returns the previously active tag:
//
//	prev := s.PushTag("pim")
//	defer s.PopTag(prev)
//
// Push/pop is two string assignments — cheap enough for packet handlers.
func (s *Scheduler) PushTag(tag string) (prev string) {
	prev = s.curTag
	s.curTag = tag
	return prev
}

// PopTag restores the tag returned by the matching PushTag.
func (s *Scheduler) PopTag(prev string) { s.curTag = prev }

// RunStats snapshots the scheduler's instrumentation counters. Per-tag
// timing appears only if Instrument was called before the run.
func (s *Scheduler) RunStats() RunStats {
	rs := RunStats{
		Dispatched:     s.processed,
		QueueHighWater: s.hwm,
		Virtual:        s.now,
	}
	if s.instr != nil {
		rs.Tags = make([]TagStat, 0, len(s.instr.tags))
		for _, ts := range s.instr.tags {
			rs.Tags = append(rs.Tags, *ts)
			rs.Wall += ts.Wall
		}
		sort.Slice(rs.Tags, func(i, j int) bool { return rs.Tags[i].Tag < rs.Tags[j].Tag })
	}
	return rs
}
