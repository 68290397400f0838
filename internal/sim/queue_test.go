package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The event queue checked against a reference model: a slice of the
// queued events kept sorted by (at, seq), with the clock and sequence
// counter a correct scheduler would have.

type modelEntry struct {
	at    Time
	seq   uint64
	tag   string
	label string
}

type queueModel struct {
	now     Time
	seq     uint64
	entries []modelEntry // sorted by (at, seq): the order they fire in
}

// add queues label at t, clamped to the present, with the next sequence
// number — what At, Schedule and a timer re-arm all do.
func (m *queueModel) add(t Time, tag, label string) {
	if t < m.now {
		t = m.now
	}
	e := modelEntry{at: t, seq: m.seq, tag: tag, label: label}
	m.seq++
	// The new seq is the largest yet, so e goes after every entry at or
	// before its time.
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].at > t })
	m.entries = slices.Insert(m.entries, i, e)
}

// remove drops label's entry and reports whether it was queued.
func (m *queueModel) remove(label string) bool {
	for i, e := range m.entries {
		if e.label == label {
			m.entries = slices.Delete(m.entries, i, i+1)
			return true
		}
	}
	return false
}

func (m *queueModel) find(label string) (modelEntry, bool) {
	for _, e := range m.entries {
		if e.label == label {
			return e, true
		}
	}
	return modelEntry{}, false
}

// queueHarness drives a Scheduler and the model with the same random
// operations and compares them after each one.
type queueHarness struct {
	t      *testing.T
	rng    *rand.Rand
	s      *Scheduler
	m      queueModel
	events []Event  // every handle At issued, fired and canceled ones included
	labels []string // labels[i] is the label of events[i]
	timers []*Timer
	fired  []string // labels in the order the scheduler ran them
	want   []string // labels in the order the model popped them
	depth  int      // > 0 while a callback runs a nested operation
}

func newQueueHarness(t *testing.T, seed int64, timers int) *queueHarness {
	h := &queueHarness{t: t, rng: rand.New(rand.NewSource(seed)), s: NewScheduler(seed)}
	for k := 0; k < timers; k++ {
		label := fmt.Sprintf("t%d", k)
		h.timers = append(h.timers, NewTimer(h.s, func() { h.ran(label) }))
	}
	return h
}

// ran is every callback's body: log the label, then sometimes run one
// more operation from inside the handler, as protocol code re-arms timers
// and cancels events while handling one.
func (h *queueHarness) ran(label string) {
	h.fired = append(h.fired, label)
	if h.depth == 0 && h.rng.Intn(3) == 0 {
		h.depth++
		h.op(false)
		h.depth--
	}
}

// offset draws a time near the present, a few in the past (which must
// clamp) and many on the same millisecond (which must stay FIFO).
func (h *queueHarness) offset() Time {
	return h.s.Now() + Time(h.rng.Intn(24)-3)*Millisecond
}

// op runs one random operation under a random handler tag. Step is left
// out of nested operations: a handler never drives its own scheduler.
func (h *queueHarness) op(allowStep bool) {
	tag := []string{"", "a", "b"}[h.rng.Intn(3)]
	prev := h.s.PushTag(tag)
	defer h.s.PopTag(prev)
	switch k := h.rng.Intn(10); {
	case k < 3 || (k >= 8 && !allowStep):
		h.schedule(tag)
	case k < 5:
		h.cancel()
	case k < 7:
		h.reset(tag)
	case k < 8:
		h.stop()
	default:
		h.step()
	}
}

func (h *queueHarness) schedule(tag string) {
	label := fmt.Sprintf("e%d", len(h.events))
	at := h.offset()
	h.events = append(h.events, h.s.At(at, func() { h.ran(label) }))
	h.labels = append(h.labels, label)
	h.m.add(at, tag, label)
}

func (h *queueHarness) cancel() {
	if len(h.events) == 0 {
		return
	}
	i := h.rng.Intn(len(h.events))
	ev := h.events[i]
	if got, want := ev.Cancel(), h.m.remove(h.labels[i]); got != want {
		h.t.Fatalf("Cancel(%s) = %v, model says %v", h.labels[i], got, want)
	}
	if ev.Pending() || ev.When() != 0 || ev.Cancel() {
		h.t.Fatalf("handle %s still live after Cancel: pending=%v when=%v", h.labels[i], ev.Pending(), ev.When())
	}
}

// reset re-arms a random timer, earlier or later than its current expiry,
// through Reset or ResetAt. A running timer's old expiry must leave the
// queue as the new one enters: the queue length does not change.
func (h *queueHarness) reset(tag string) {
	k := h.rng.Intn(len(h.timers))
	tm, label := h.timers[k], fmt.Sprintf("t%d", k)
	at := h.offset()
	if e, ok := h.m.find(label); ok && h.rng.Intn(2) == 0 {
		at = e.at + Time(h.rng.Intn(9)-4)*Millisecond
	}
	before := h.s.Pending()
	running := tm.Running()
	if h.rng.Intn(2) == 0 {
		tm.ResetAt(at)
	} else {
		tm.Reset(at.Sub(h.s.Now()))
	}
	h.m.remove(label)
	h.m.add(at, tag, label)
	if running && h.s.Pending() != before {
		h.t.Fatalf("re-arming running timer %s changed the queue length %d -> %d", label, before, h.s.Pending())
	}
}

func (h *queueHarness) stop() {
	k := h.rng.Intn(len(h.timers))
	if got, want := h.timers[k].Stop(), h.m.remove(fmt.Sprintf("t%d", k)); got != want {
		h.t.Fatalf("Stop(t%d) = %v, model says %v", k, got, want)
	}
}

func (h *queueHarness) step() {
	ok := len(h.m.entries) > 0
	if ok {
		e := h.m.entries[0]
		h.m.entries = h.m.entries[1:]
		h.m.now = e.at
		h.want = append(h.want, e.label)
	}
	if got := h.s.Step(); got != ok {
		h.t.Fatalf("Step() = %v, model has %d queued", got, len(h.m.entries))
	}
}

// check compares the scheduler with the model and checks the heap's own
// invariants: every event knows its slot, and no child fires before its
// parent.
func (h *queueHarness) check(after string) {
	h.t.Helper()
	s, m := h.s, &h.m
	if !slices.Equal(h.fired, h.want) {
		h.t.Fatalf("after %s: fire order %v, model %v", after, h.fired, h.want)
	}
	if s.Now() != m.now || s.SeqCounter() != m.seq || s.Pending() != len(m.entries) {
		h.t.Fatalf("after %s: now/seq/pending = %v/%d/%d, model %v/%d/%d",
			after, s.Now(), s.SeqCounter(), s.Pending(), m.now, m.seq, len(m.entries))
	}
	got := s.PendingEvents()
	for i, e := range m.entries {
		if got[i] != (PendingEvent{At: e.at, Seq: e.seq, Tag: e.tag}) {
			h.t.Fatalf("after %s: PendingEvents[%d] = %+v, model %+v (%s)", after, i, got[i], e, e.label)
		}
	}
	for i, e := range s.queue {
		if e.index != i {
			h.t.Fatalf("after %s: slot %d holds an event that thinks it is at %d", after, i, e.index)
		}
		if p := (i - 1) / 2; i > 0 && e.before(s.queue[p]) {
			h.t.Fatalf("after %s: slot %d fires before its parent %d", after, i, p)
		}
	}
	for k, tm := range h.timers {
		e, ok := m.find(fmt.Sprintf("t%d", k))
		if tm.Running() != ok || tm.Expiry() != e.at {
			h.t.Fatalf("after %s: timer t%d running=%v expiry=%v, model %v/%v", after, k, tm.Running(), tm.Expiry(), ok, e.at)
		}
	}
}

// Random interleavings of At, Cancel, Timer.Reset/ResetAt, Stop and Step
// — some run from inside handlers — must match the sorted-slice model
// after every operation: same fire order, same sequence counter, Pending
// equal to the live count and PendingEvents equal to the model.
func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		h := newQueueHarness(t, seed, 6)
		for i := 0; i < 300; i++ {
			h.op(true)
			h.check(fmt.Sprintf("seed %d op %d", seed, i))
		}
		for h.s.Pending() > 0 {
			h.step()
			h.check(fmt.Sprintf("seed %d drain", seed))
		}
	}
}

// Canceling must remove an event from any slot and restore heap order
// whichever way the event moved into the hole has to go. The times are
// laid out so pushing them in order leaves each one where it lands:
//
//	slot: 0  1  2  3  4  5  6
//	time: 1 10  2 11 12  3  4
func TestQueueCancelAnySlot(t *testing.T) {
	layout := []Time{1, 10, 2, 11, 12, 3, 4}
	for _, tc := range []struct {
		name string
		slot int
	}{
		{"root", 0},
		{"last", 6},
		{"middle, replacement sifts up", 3},   // 4 moves under 10
		{"middle, replacement sifts down", 2}, // 4 moves above 3
		{"middle, replacement stays", 1},      // 4 moves between 1 and 11/12
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(1)
			var fired []Time
			evs := make([]Event, len(layout))
			for i, at := range layout {
				evs[i] = s.At(at*Second, func() { fired = append(fired, s.Now()/Second) })
			}
			if got := evs[tc.slot].e.index; got != tc.slot {
				t.Fatalf("layout assumption broken: event %d sits in slot %d", tc.slot, got)
			}
			if !evs[tc.slot].Cancel() {
				t.Fatal("Cancel returned false for a queued event")
			}
			for i, e := range s.queue {
				if e.index != i {
					t.Fatalf("slot %d holds an event that thinks it is at %d", i, e.index)
				}
			}
			s.Run()
			want := slices.Delete(slices.Clone(layout), tc.slot, tc.slot+1)
			slices.Sort(want)
			if !slices.Equal(fired, want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
		})
	}
}
