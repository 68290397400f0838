// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Scheduler owns a virtual clock and an event queue. Events scheduled for
// the same virtual time fire in the order they were scheduled (FIFO by
// sequence number), which together with a seeded random source makes every
// simulation run bit-reproducible.
//
// One goroutine drives one Scheduler. Parallelism comes at two levels:
// across independent replicate runs (see RunParallel), and inside one
// virtual timeline, where the sharded Kernel (shard.go) runs several region
// Schedulers in conservative lock-step windows, byte-identical at any
// worker count.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual-time constants, mirroring the time package.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time as seconds with millisecond precision, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Receiver runs typed delivery events (see Scheduler.Deliver).
type Receiver interface {
	Receive(d Delivery)
}

// Delivery is a typed event: the receiver that runs it and the operands it
// runs with. It travels in a record the scheduler pools beside its events,
// and across regions inside the kernel's message, where a closure would be
// one allocation per event; operands that hold pointers need no allocation
// either. netem delivers every frame this way, one Delivery per receiving
// interface: A the interface, B its home link, C the packet, Flag whether
// the frame was link-layer unicast, N the packet's hop count. Flag and N
// share the record's last word, so it stays 72 bytes.
type Delivery struct {
	To      Receiver
	A, B, C any
	Flag    bool
	N       uint8
}

// event is a scheduled callback: fn, or when fn is nil the typed delivery
// *d. Events and delivery records are pooled: once executed or canceled
// they return to the scheduler's free lists and are reused by later
// At/Schedule/Deliver calls. The delivery lives out of line so that the far
// more numerous closure events stay 64 bytes.
type event struct {
	at Time
	// seq breaks ties FIFO among events at the same instant. Every push
	// takes a fresh one, so it also tells a handle whether the event is
	// still the one it was issued for.
	seq   uint64
	fn    func()
	d     *Delivery
	tag   string     // handler tag inherited from the scheduling context
	s     *Scheduler // owner, whose queue Cancel removes the event from
	index int        // heap slot, -1 when not queued
}

// before orders events by (at, seq): the order they fire in.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of live events ordered by (at, seq). Each
// event records its slot, so a canceled event (a stopped or re-armed timer's
// old expiry among them) is removed at once: the heap never holds an event
// that will not fire.
type eventQueue []*event

// up sifts q[i] toward the root.
func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down sifts q[i] toward the leaves and reports whether it moved.
func (q eventQueue) down(i int) bool {
	e, start, n := q[i], i, len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
	return i > start
}

func (q *eventQueue) push(e *event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// remove takes the event in slot i out of the heap. The last event fills
// the hole and sifts whichever way its key requires.
func (q *eventQueue) remove(i int) *event {
	old := *q
	n := len(old) - 1
	e := old[i]
	old[i] = old[n]
	old[n] = nil
	*q = old[:n]
	if i < n && !q.down(i) {
		q.up(i)
	}
	e.index = -1
	return e
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// not usable; create one with NewScheduler.
type Scheduler struct {
	now     Time
	queue   eventQueue
	seq     uint64
	seed    int64
	rng     *rand.Rand
	rootSrc *countingSource
	streams map[string]*rand.Rand
	// streamSrc holds each named stream's counted source, so checkpoints
	// can read (and restores verify) the stream's draw position.
	streamSrc map[string]*countingSource
	stopped   bool
	// region and outbox are set by kernel wiring (see shard.go): the
	// scheduler's region index and its per-destination-region mailboxes
	// for cross-region messages. outbox is nil outside a kernel.
	region int
	outbox [][]xmsg
	// processed counts events executed; useful for kernel benchmarks and
	// runaway detection in tests.
	processed uint64

	// free is the recycled-event list: executed and canceled events land
	// here and are reused by At, so steady-state scheduling does not
	// allocate. dfree does the same for delivery records.
	free  []*event
	dfree []*Delivery

	// curTag is the handler tag attributed to events scheduled right now:
	// subsystems bracket their scheduling with PushTag/PopTag, and events
	// inherit the tag active while the currently-executing event runs.
	curTag string
	// hwm is the event-queue high-water mark (most live events queued at
	// once).
	hwm int
	// instr, when non-nil, accumulates per-tag wall-clock dispatch timing.
	instr *instr
	// labelCtx, when non-nil, enables runtime/pprof goroutine labels during
	// dispatch (see LabelProfiles): one cached label set per handler tag,
	// applied only when consecutive events carry different tags.
	labelCtx map[string]context.Context
	// curLabel is the tag whose label set is currently applied.
	curLabel string
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// Two schedulers built with the same seed and fed the same schedule calls
// produce identical runs.
func NewScheduler(seed int64) *Scheduler {
	rng, src := newCountedRand(seed)
	return &Scheduler{seed: seed, rng: rng, rootSrc: src}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's root deterministic random source. Simulation
// components must not share it: each consumer draws from its own named
// stream via RandFor, so that adding or removing one randomized component
// never shifts the draws of another. The root source remains for tests and
// ad-hoc tooling that own a whole timeline.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// RandFor returns the deterministic random stream for a named consumer
// ("pimdm-hello", "mld", "ndp", "timer-jitter", "netem-impair", ...). Each
// stream is seeded from (scheduler seed, stream name), so a stream's draw
// sequence depends only on the seed and that consumer's own draw count —
// enabling or disabling any other randomized component leaves it intact.
func (s *Scheduler) RandFor(stream string) *rand.Rand {
	if r, ok := s.streams[stream]; ok {
		return r
	}
	if s.streams == nil {
		s.streams = make(map[string]*rand.Rand)
		s.streamSrc = make(map[string]*countingSource)
	}
	r, src := newCountedRand(streamSeed(s.seed, stream))
	s.streams[stream] = r
	s.streamSrc[stream] = src
	return r
}

// Jitter draws a uniform duration in [0, max) from the named stream. A
// max <= 0 returns 0: degenerate configurations (zero response delay, zero
// jitter) must never feed a non-positive bound to Int63n, which panics.
func (s *Scheduler) Jitter(stream string, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(s.RandFor(stream).Int63n(int64(max)))
}

// DeriveSeed derives an independent seed from a base seed and a name, with
// the same decorrelation guarantees as RandFor's streams. Kernel wiring uses
// it to give each shard region its own scheduler seed ("region-1",
// "region-2", ...); region 0 keeps the raw run seed, so a one-region
// kernel runs the same timeline as its scheduler driven alone.
func DeriveSeed(seed int64, name string) int64 { return streamSeed(seed, name) }

// streamSeed derives a stream's seed from the run seed and the stream name:
// FNV-1a over the name, then a splitmix64 finalizer over the sum. The
// finalizer decorrelates nearby run seeds, so replicate seeds derived by
// small arithmetic steps still get unrelated streams.
func streamSeed(seed int64, stream string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	z := uint64(seed) + h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Processed reports how many events have executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are queued to fire. Canceled events leave
// the queue at once, so this is exactly the live count.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Schedule runs fn after delay d of virtual time. A negative delay is treated
// as zero (fn runs at the current instant, after already-queued events for
// that instant). It returns a handle that can cancel the event.
func (s *Scheduler) Schedule(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the present.
func (s *Scheduler) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	return s.push(t, fn, nil)
}

// pushDelivery queues the typed delivery d at t in a pooled record.
func (s *Scheduler) pushDelivery(t Time, d Delivery) {
	var r *Delivery
	if n := len(s.dfree); n > 0 {
		r = s.dfree[n-1]
		s.dfree[n-1] = nil
		s.dfree = s.dfree[:n-1]
	} else {
		r = new(Delivery)
	}
	*r = d
	s.push(t, nil, r)
}

// push queues one event, fn or *d, at t (clamped to the present) with the
// next sequence number and the current tag.
func (s *Scheduler) push(t Time, fn func(), d *Delivery) Event {
	if t < s.now {
		t = s.now
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at, e.seq, e.fn, e.d, e.tag = t, s.seq, fn, d, s.curTag
	} else {
		e = &event{at: t, seq: s.seq, fn: fn, d: d, tag: s.curTag, s: s}
	}
	s.seq++
	s.queue.push(e)
	if len(s.queue) > s.hwm {
		s.hwm = len(s.queue)
	}
	return Event{e: e, seq: e.seq}
}

// recycle returns a dequeued event to the free list. Outstanding handles to
// it report it no longer pending, and its next push gives it a new seq.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	if e.d != nil {
		*e.d = Delivery{}
		s.dfree = append(s.dfree, e.d)
		e.d = nil
	}
	e.tag = ""
	s.free = append(s.free, e)
}

// Stop halts the run loop after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to it. It reports
// whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.remove(0)
	s.now = e.at
	s.processed++
	s.curTag = e.tag
	fn, tag := e.fn, e.tag
	var d Delivery
	if e.d != nil {
		d = *e.d
	}
	// Recycle before running: fn may reschedule and reuse this slot,
	// which is fine — reuse gives the slot a new seq, which stale
	// handles do not match.
	s.recycle(e)
	if s.labelCtx != nil && tag != s.curLabel {
		s.applyLabel(tag)
	}
	if s.instr != nil {
		start := time.Now()
		run(fn, d)
		s.instr.record(tag, time.Since(start))
	} else {
		run(fn, d)
	}
	s.curTag = ""
	return true
}

// run executes one event's body: fn, or the typed delivery d.
func run(fn func(), d Delivery) {
	if fn != nil {
		fn()
		return
	}
	d.To.Receive(d)
}

// RunUntil executes events in order until the queue is empty, Stop is called,
// or the next event would fire after deadline. The clock is left at the time
// of the last executed event, or advanced to deadline if it is later.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Run executes all queued events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// peek returns the next event to fire, or nil when none is queued.
func (s *Scheduler) peek() *event {
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[0]
}

// Event is a cancelable handle to a scheduled callback. It is a small value
// (no heap allocation per scheduled event); the zero Event is an inert
// handle on which Cancel and Pending report false. Handles stay safe after
// their event fires: the underlying object is recycled for later events,
// and a stale handle simply becomes inert.
type Event struct {
	e   *event
	seq uint64 // the event's seq when the handle was issued
}

// live reports whether the handle still refers to the event it was issued
// for (the underlying object may have been recycled since).
func (ev Event) live() bool { return ev.e != nil && ev.e.seq == ev.seq }

// Cancel prevents the event from firing: it leaves the queue and its slot
// is recycled at once, so this and every other handle to it go inert.
// Canceling an already-fired or already-canceled event is a no-op. It
// reports whether the event was still pending.
func (ev Event) Cancel() bool {
	if !ev.Pending() {
		return false
	}
	s := ev.e.s
	s.recycle(s.queue.remove(ev.e.index))
	return true
}

// Pending reports whether the event is still queued to fire.
func (ev Event) Pending() bool { return ev.live() && ev.e.index >= 0 }

// When returns the virtual time the event fires. It is only meaningful
// while the event is pending; once fired or canceled it returns 0.
func (ev Event) When() Time {
	if !ev.Pending() {
		return 0
	}
	return ev.e.at
}
