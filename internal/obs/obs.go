// Package obs is the run-scoped observability layer: a Recorder that
// protocol engines and the network emulator feed with state-machine
// transitions, instantaneous events and counter samples, all stamped with
// virtual time and a per-recorder sequence number.
//
// Recording is strictly opt-in. Engines carry a concrete *Recorder field
// that defaults to nil, and every emission site is guarded by a nil check
// before any formatting work happens, so an unattached simulation pays
// only an untaken branch (see the zero-allocation tests). Every Recorder
// method is additionally nil-receiver-safe, so forgetting a guard degrades
// to a cheap call, never a crash.
//
// One Recorder belongs to one virtual timeline (one sim.Scheduler). It is
// not safe for concurrent use — exactly like the kernel it observes.
// Replicated sweeps attach one Recorder per timeline; because event
// content derives only from virtual time and the timeline's own seeded
// randomness, the recorded stream is bit-reproducible for a fixed seed
// regardless of how many worker goroutines drive sibling timelines.
package obs

import (
	"sort"

	"mip6mcast/internal/sim"
)

// Cat classifies an event.
type Cat uint8

// Event categories.
const (
	// CatState marks a state-machine transition: the track entered state
	// Name at the event's time and stays there until the track's next
	// CatState event.
	CatState Cat = iota
	// CatInstant marks a point event (a message sent, a timer fired).
	CatInstant
	// CatCounter carries a sampled numeric value on a counter track.
	CatCounter
)

// String implements fmt.Stringer.
func (c Cat) String() string {
	switch c {
	case CatState:
		return "state"
	case CatInstant:
		return "instant"
	case CatCounter:
		return "counter"
	default:
		return "?"
	}
}

// Event is one recorded observation. Node and Track identify where it
// happened: Node is the owning simulation node ("A", "R3", or the synthetic
// "net" for link-level events) and Track the state machine, instant stream
// or counter within that node (e.g. "pim 2001:db8:1::5000->ff0e::101 up").
type Event struct {
	At    sim.Time
	Seq   uint64
	Cat   Cat
	Node  string
	Track string
	// Name is the state entered (CatState) or the event name (CatInstant);
	// unused for counters.
	Name string
	// Value is the counter sample (CatCounter only).
	Value float64
	// Detail carries optional free-form context.
	Detail string
}

// Recorder accumulates events for one virtual timeline. The zero value is
// usable but unstamped; Bind attaches the scheduler whose clock stamps
// subsequent events.
//
// In a sharded run (sim.Kernel) the root recorder carries only
// single-threaded driver events; every region gets a child recorder (Shard)
// written exclusively by that region's scheduler, and MergeShards folds the
// children into the root stream at kernel barriers — ordered by
// (time, region, emission order) and re-stamped with root sequence numbers,
// so the merged trace is one deterministic timeline.
type Recorder struct {
	s        *sim.Scheduler
	seq      uint64
	events   []Event
	children []*Recorder
}

// NewRecorder returns a recorder stamping events with s's clock. s may be
// nil and bound later (the experiment engine creates recorders before the
// timeline's scheduler exists).
func NewRecorder(s *sim.Scheduler) *Recorder {
	return &Recorder{s: s}
}

// Bind sets (or replaces) the scheduler whose clock stamps events. The
// scenario builder calls this when the network is constructed.
func (r *Recorder) Bind(s *sim.Scheduler) {
	if r == nil {
		return
	}
	r.s = s
}

func (r *Recorder) now() sim.Time {
	if r.s == nil {
		return 0
	}
	return r.s.Now()
}

func (r *Recorder) append(e Event) {
	e.At = r.now()
	e.Seq = r.seq
	r.seq++
	r.events = append(r.events, e)
}

// State records that node's track entered the named state. Nil-safe.
func (r *Recorder) State(node, track, state, detail string) {
	if r == nil {
		return
	}
	r.append(Event{Cat: CatState, Node: node, Track: track, Name: state, Detail: detail})
}

// Instant records a point event on node's track. Nil-safe.
func (r *Recorder) Instant(node, track, name, detail string) {
	if r == nil {
		return
	}
	r.append(Event{Cat: CatInstant, Node: node, Track: track, Name: name, Detail: detail})
}

// Counter records a sampled value on node's counter track. Nil-safe.
func (r *Recorder) Counter(node, track string, value float64) {
	if r == nil {
		return
	}
	r.append(Event{Cat: CatCounter, Node: node, Track: track, Value: value})
}

// Shard returns a child recorder bound to s, creating it on first use. All
// events emitted from s's region go through the child; the root stream
// receives them at the next MergeShards. Nil-safe (returns nil, and every
// Recorder method tolerates a nil receiver).
func (r *Recorder) Shard(s *sim.Scheduler) *Recorder {
	if r == nil {
		return nil
	}
	for _, c := range r.children {
		if c.s == s {
			return c
		}
	}
	c := &Recorder{s: s}
	r.children = append(r.children, c)
	return c
}

// For returns the recorder that events stamped by s must go through: the
// child bound to s if one exists, else the root. One-region runs have no
// children, so For is the identity there. Nil-safe.
func (r *Recorder) For(s *sim.Scheduler) *Recorder {
	if r == nil {
		return nil
	}
	for _, c := range r.children {
		if c.s == s {
			return c
		}
	}
	return r
}

// MergeShards folds all child events into the root stream and clears the
// children. Events merge ordered by (time, region index, per-child emission
// order) — sort.SliceStable over At preserves the latter two because
// children are appended in region order — and are re-stamped with root
// sequence numbers, yielding one deterministic timeline. Sharded runs call
// this at every kernel barrier (all drained child events precede the
// barrier time, so root events emitted at the barrier stay chronological).
func (r *Recorder) MergeShards() {
	if r == nil || len(r.children) == 0 {
		return
	}
	start := len(r.events)
	for _, c := range r.children {
		r.events = append(r.events, c.events...)
		c.events = c.events[:0]
	}
	merged := r.events[start:]
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].At < merged[j].At })
	for i := range merged {
		merged[i].Seq = r.seq
		r.seq++
	}
}

// Len reports how many events have been recorded. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns the recorded stream in emission order. The slice is the
// recorder's backing store; callers must not mutate it. Nil-safe.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// End returns the timestamp closing the recording: the scheduler's current
// virtual time if bound, else the last event's time. Exporters use it to
// close still-open state slices.
func (r *Recorder) End() sim.Time {
	if r == nil {
		return 0
	}
	end := r.now()
	if n := len(r.events); n > 0 && r.events[n-1].At > end {
		end = r.events[n-1].At
	}
	return end
}
