//go:build !race

// Allocation budgets for the scheduler hot path. Excluded under -race: the
// race runtime instruments allocations and the counts no longer reflect the
// production build. scripts/check.sh runs these in a separate non-race pass.

package sim

import (
	"testing"
	"time"
)

// TestStepAllocFree pins the zero-allocation event loop: with the event free
// list warm, Schedule + Step must not allocate. A regression here (e.g. the
// Event handle escaping to the heap again) multiplies across every event of
// every run.
func TestStepAllocFree(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// TestStepAllocFreeWithLabels pins the pprof-label path: once each tag's
// label set is cached, switching labels between events must not allocate —
// LabelProfiles is meant to stay on for whole profiled runs.
func TestStepAllocFreeWithLabels(t *testing.T) {
	s := NewScheduler(1)
	s.LabelProfiles()
	fn := func() {}
	schedule := func(tag string) {
		prev := s.PushTag(tag)
		s.Schedule(time.Microsecond, fn)
		s.PopTag(prev)
	}
	// Warm the pool and both tags' cached label sets.
	for i := 0; i < 64; i++ {
		schedule("a")
		s.Step()
		schedule("b")
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		schedule("a")
		s.Step()
		schedule("b")
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step with label switching allocates %v objects/op; want 0", allocs)
	}
}

// TestTimerResetAllocFree pins allocation-free timer re-arming: arming a
// stopped timer takes a pooled event and the callback NewTimer bound, and
// re-arming a running one, earlier or later, recycles its old expiry and
// takes it straight back. Protocol state refreshes a timer on every
// datagram.
func TestTimerResetAllocFree(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	for i := 0; i < 64; i++ {
		tm.Reset(time.Second)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Second)
		tm.Reset(2 * time.Second)
		tm.ResetAt(s.Now().Add(time.Millisecond))
		s.Step()
		tm.Reset(time.Second)
		tm.Stop()
	})
	if allocs != 0 {
		t.Errorf("Timer Reset/ResetAt/Stop allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// TestTickerAllocFree pins the periodic path: a tick re-arms with the
// callback NewTicker bound, and SetPeriod re-arms through the pool.
func TestTickerAllocFree(t *testing.T) {
	s := NewScheduler(1)
	tk := NewTicker(s, time.Millisecond, time.Microsecond, func() {})
	for i := 0; i < 64; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
		tk.SetPeriod(2 * time.Millisecond)
		s.Step()
		tk.SetPeriod(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("Ticker tick/SetPeriod allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// nopReceiver runs typed deliveries and does nothing.
type nopReceiver struct{}

func (nopReceiver) Receive(Delivery) {}

// TestDeliverAllocFree pins the typed delivery event: with pointer
// operands, Deliver + Step allocates nothing, within a region and through
// a cross-region outbox and the barrier's merge.
func TestDeliverAllocFree(t *testing.T) {
	a, b := NewScheduler(1), NewScheduler(2)
	k := NewKernel([]*Scheduler{a, b}, time.Millisecond, 1)
	op := new(int)
	round := func() {
		d := Delivery{To: nopReceiver{}, A: a, B: b, C: op, Flag: true}
		a.Deliver(a, a.Now().Add(time.Millisecond), d)
		a.Deliver(b, b.Now().Add(time.Millisecond), d)
		k.drainOutboxes()
		a.Step()
		b.Step()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("Deliver+dispatch allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// TestKernelWindowAllocFree pins allocation-free kernel windows: with the
// event pools and outboxes warm, advancing a kernel of one region or of
// four on one worker allocates nothing, across windows, cross-region
// merges at barriers and a periodic hook.
func TestKernelWindowAllocFree(t *testing.T) {
	for _, n := range []int{1, 4} {
		scheds := make([]*Scheduler, n)
		for i := range scheds {
			scheds[i] = NewScheduler(int64(i + 1))
		}
		k := NewKernel(scheds, time.Millisecond, 1)
		for i, s := range scheds {
			// Every 300 µs each region delivers to the next one, 2 ms on.
			s, d := s, Delivery{To: nopReceiver{}, A: new(int)}
			dst := scheds[(i+1)%n]
			var tick func()
			tick = func() {
				s.Deliver(dst, s.Now().Add(2*time.Millisecond), d)
				s.Schedule(300*time.Microsecond, tick)
			}
			s.Schedule(0, tick)
		}
		k.Every(10*time.Millisecond, func() {})
		run := func() { k.Run(5 * time.Millisecond) }
		for i := 0; i < 64; i++ {
			run()
		}
		before := k.Windows()
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%d regions: Kernel.Run allocates %v objects/op with warm pools; want 0", n, allocs)
		}
		if k.Windows() == before {
			t.Fatalf("%d regions: Kernel.Run ran no window", n)
		}
	}
}
