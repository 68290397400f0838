package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.Schedule(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(1*time.Second, func() { order = append(order, 1) })
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerNegativeDelayClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.Schedule(time.Second, func() {
		s.Schedule(-5*time.Second, func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != Time(time.Second) {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestSchedulerAtPastClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.Schedule(10*time.Second, func() {
		s.At(Time(2*time.Second), func() { at = s.Now() })
	})
	s.Run()
	if at != Time(10*time.Second) {
		t.Errorf("past event fired at %v, want clamped to 10s", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(Time(3 * time.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want advanced to deadline 3s", s.Now())
	}
	s.RunUntil(Time(10 * time.Second))
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Schedule(time.Second, func() { count++ })
	s.Schedule(3*time.Second, func() { count++ })
	s.RunFor(2 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d after first RunFor, want 1", count)
	}
	s.RunFor(2 * time.Second) // now at t=4s
	if count != 2 {
		t.Fatalf("count = %d after second RunFor, want 2", count)
	}
}

// A canceled event leaves the queue at once and its handle goes inert:
// Pending is false, When is 0, and neither it nor a handle to the event
// that reuses its slot can touch the new event.
func TestEventCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	ev := s.Schedule(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event not pending after Schedule")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if ev.Pending() || ev.When() != 0 {
		t.Fatalf("after Cancel: Pending=%v When=%v, want false, 0", ev.Pending(), ev.When())
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", s.Pending())
	}
	reused := false
	next := s.Schedule(2*time.Second, func() { reused = true })
	if next.e != ev.e {
		t.Fatal("the canceled event was not recycled for the next Schedule")
	}
	if ev.Pending() || ev.When() != 0 || ev.Cancel() {
		t.Fatal("stale handle sees or cancels the event that reused its slot")
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !reused {
		t.Fatal("event in the recycled slot did not fire")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := NewScheduler(1)
	ev := s.Schedule(time.Second, func() {})
	s.Run()
	if ev.Pending() {
		t.Fatal("event still pending after run")
	}
	if ev.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("count = %d after Stop, want 4", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(time.Millisecond, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != Time(99*time.Millisecond) {
		t.Errorf("Now() = %v, want 99ms", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var draws []int64
		for i := 0; i < 50; i++ {
			s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Minute))), func() {
				draws = append(draws, int64(s.Now()))
			})
		}
		s.Run()
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("replicate runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replicate runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(90 * time.Second)
	if a.Seconds() != 90 {
		t.Errorf("Seconds() = %v", a.Seconds())
	}
	if a.Add(30*time.Second) != Time(2*time.Minute) {
		t.Errorf("Add mismatch")
	}
	if a.Sub(Time(30*time.Second)) != time.Minute {
		t.Errorf("Sub mismatch")
	}
	if a.String() != "90.000s" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestTimerFiresOnce(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	AfterFunc(s, time.Second, func() { count++ })
	s.RunUntil(Time(time.Hour))
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	s := NewScheduler(1)
	var firedAt Time
	tm := AfterFunc(s, time.Second, func() { firedAt = s.Now() })
	tm.Reset(5 * time.Second)
	s.Run()
	if firedAt != Time(5*time.Second) {
		t.Fatalf("timer fired at %v, want 5s (reset must cancel prior arm)", firedAt)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := AfterFunc(s, time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for running timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerRemaining(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	if tm.Running() || tm.Remaining() != 0 {
		t.Fatal("fresh timer should be stopped with zero remaining")
	}
	tm.Reset(10 * time.Second)
	s.Schedule(4*time.Second, func() {
		if got := tm.Remaining(); got != 6*time.Second {
			t.Errorf("Remaining = %v, want 6s", got)
		}
	})
	s.Run()
	stopped := func(when string) {
		t.Helper()
		if tm.Running() || tm.Expiry() != 0 || tm.Remaining() != 0 {
			t.Errorf("%s: Running=%v Expiry=%v Remaining=%v, want false, 0, 0", when, tm.Running(), tm.Expiry(), tm.Remaining())
		}
	}
	stopped("after firing")
	tm.Reset(time.Second)
	tm.Stop()
	stopped("after Stop")
}

func TestTimerResetAt(t *testing.T) {
	s := NewScheduler(1)
	var firedAt Time
	tm := NewTimer(s, func() { firedAt = s.Now() })
	tm.ResetAt(Time(7 * time.Second))
	if tm.Expiry() != Time(7*time.Second) {
		t.Errorf("Expiry = %v", tm.Expiry())
	}
	s.Run()
	if firedAt != Time(7*time.Second) {
		t.Errorf("fired at %v, want 7s", firedAt)
	}
}

func TestTimerResetFromCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		count++
		if count < 3 {
			tm.Reset(time.Second)
		}
	})
	tm.Reset(time.Second)
	s.Run()
	if count != 3 {
		t.Fatalf("self-rearming timer fired %d times, want 3", count)
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := NewScheduler(1)
	var ticks []Time
	tk := NewTicker(s, 10*time.Second, 0, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(Time(35 * time.Second))
	tk.Stop()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, want := range []Time{Time(10 * time.Second), Time(20 * time.Second), Time(30 * time.Second)} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(s, time.Second, 0, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(Time(time.Hour))
	if count != 2 {
		t.Fatalf("ticker fired %d times after Stop, want 2", count)
	}
	if tk.Running() {
		t.Error("ticker reports Running after Stop")
	}
}

func TestTickerJitterBounded(t *testing.T) {
	s := NewScheduler(7)
	period, jitter := 10*time.Second, 5*time.Second
	var prev Time
	ok := true
	NewTicker(s, period, jitter, func() {
		gap := s.Now().Sub(prev)
		if gap < period || gap >= period+jitter {
			ok = false
		}
		prev = s.Now()
	})
	s.RunUntil(Time(10 * time.Minute))
	if !ok {
		t.Fatal("jittered tick interval out of [period, period+jitter)")
	}
}

func TestTickerSetPeriod(t *testing.T) {
	s := NewScheduler(1)
	var ticks []Time
	tk := NewTicker(s, 10*time.Second, 0, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(Time(10 * time.Second)) // first tick at 10s
	tk.SetPeriod(2 * time.Second)
	s.RunUntil(Time(15 * time.Second))
	tk.Stop()
	// After SetPeriod at t=10s: ticks at 12s, 14s.
	want := []Time{Time(10 * time.Second), Time(12 * time.Second), Time(14 * time.Second)}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerFireNow(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	tk := NewTicker(s, time.Minute, 0, func() { count++ })
	tk.FireNow()
	if count != 1 {
		t.Fatal("FireNow did not invoke callback")
	}
	s.RunUntil(Time(time.Minute))
	if count != 2 {
		t.Fatalf("periodic schedule disturbed by FireNow: count=%d", count)
	}
}

// Regression: SetPeriod on a stopped ticker used to resurrect its Running()
// state without rearming it — a zombie that claims to run but never fires.
// A stopped ticker must stay stopped (and silent) across SetPeriod.
func TestTickerStopThenSetPeriod(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	tk := NewTicker(s, time.Second, 0, func() { count++ })
	tk.Stop()
	tk.SetPeriod(2 * time.Second)
	if tk.Running() {
		t.Error("stopped ticker reports Running after SetPeriod")
	}
	s.RunUntil(Time(time.Minute))
	if count != 0 {
		t.Errorf("stopped ticker fired %d times after SetPeriod", count)
	}
}

// Regression: FireNow on a stopped ticker used to run the callback (and
// rearm the periodic schedule). A stopped ticker must ignore FireNow.
func TestTickerFireNowAfterStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	tk := NewTicker(s, time.Second, 0, func() { count++ })
	tk.Stop()
	tk.FireNow()
	if count != 0 {
		t.Error("FireNow on a stopped ticker ran the callback")
	}
	s.RunUntil(Time(time.Minute))
	if count != 0 {
		t.Errorf("stopped ticker fired %d times after FireNow", count)
	}
	if tk.Running() {
		t.Error("stopped ticker reports Running after FireNow")
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the count matches.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		s := NewScheduler(99)
		var times []Time
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		s.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling any subset leaves exactly the complement to fire.
func TestQuickCancellationSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%32) + 1
		s := NewScheduler(3)
		fired := make([]bool, count)
		evs := make([]Event, count)
		for i := 0; i < count; i++ {
			i := i
			evs[i] = s.Schedule(time.Duration(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				evs[i].Cancel()
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			canceled := mask&(1<<uint(i)) != 0
			if fired[i] == canceled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		hits := make([]int32, n)
		RunParallel(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestRunParallelZeroN(t *testing.T) {
	called := false
	RunParallel(0, 4, func(int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {})
	}
	ev := s.Schedule(10*time.Second, func() {})
	ev.Cancel()
	s.Run()
	if s.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5 (canceled events don't count)", s.Processed())
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Second))), func() {})
		if s.Pending() > 1024 {
			for s.Pending() > 512 {
				s.Step()
			}
		}
	}
	s.Run()
}

func BenchmarkTimerReset(b *testing.B) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Second)
	}
	tm.Stop()
	s.Run()
}
