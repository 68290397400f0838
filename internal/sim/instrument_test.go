package sim

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Events inherit the tag active when they were scheduled, and a handler's
// own tag is active while it runs — so a timer armed inside a tagged
// handler inherits that handler's tag.
func TestTagAttribution(t *testing.T) {
	s := NewScheduler(1)
	s.Instrument()

	prev := s.PushTag("outer")
	s.Schedule(time.Second, func() {
		// Scheduled under "outer"; runs with "outer" active, so this
		// nested event inherits it without any explicit PushTag.
		s.Schedule(time.Second, func() {})
		// An explicit bracket overrides the inherited tag.
		p := s.PushTag("inner")
		s.Schedule(time.Second, func() {})
		s.PopTag(p)
	})
	s.PopTag(prev)
	s.Schedule(time.Second, func() {}) // outside any bracket: empty tag

	s.Run()

	rs := s.RunStats()
	if rs.Dispatched != 4 {
		t.Fatalf("dispatched = %d, want 4", rs.Dispatched)
	}
	got := map[string]uint64{}
	for _, ts := range rs.Tags {
		got[ts.Tag] = ts.Events
	}
	want := map[string]uint64{"outer": 2, "inner": 1, "": 1}
	for tag, n := range want {
		if got[tag] != n {
			t.Errorf("tag %q: %d events, want %d (all: %v)", tag, got[tag], n, got)
		}
	}
}

func TestPushPopTagNesting(t *testing.T) {
	s := NewScheduler(1)
	p1 := s.PushTag("a")
	if p1 != "" {
		t.Errorf("first push returned %q, want empty", p1)
	}
	p2 := s.PushTag("b")
	if p2 != "a" {
		t.Errorf("nested push returned %q, want \"a\"", p2)
	}
	s.PopTag(p2)
	s.PopTag(p1)
	s.Schedule(0, func() {})
	s.Run()
	rs := s.RunStats()
	if rs.Dispatched != 1 {
		t.Fatalf("dispatched = %d", rs.Dispatched)
	}
}

func TestQueueHighWater(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 7; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {})
	}
	if got := s.QueueHighWater(); got != 7 {
		t.Errorf("high-water before run = %d, want 7", got)
	}
	s.Run()
	// Draining must not raise the mark.
	if got := s.QueueHighWater(); got != 7 {
		t.Errorf("high-water after run = %d, want 7", got)
	}
	// Re-armed timers and canceled events leave nothing queued: the mark
	// counts live events only.
	tm := NewTimer(s, func() {})
	for i := 0; i < 20; i++ {
		tm.Reset(time.Duration(i) * time.Second)
		s.Schedule(time.Second, func() {}).Cancel()
	}
	if got := s.QueueHighWater(); got != 7 {
		t.Errorf("high-water after re-arms and cancels = %d, want 7", got)
	}
}

// Without Instrument, RunStats still reports dispatch count, high-water
// mark and virtual time — but no per-tag wall timing.
func TestRunStatsUninstrumented(t *testing.T) {
	s := NewScheduler(1)
	if s.Instrumented() {
		t.Fatal("fresh scheduler claims to be instrumented")
	}
	prev := s.PushTag("x")
	s.Schedule(3*time.Second, func() {})
	s.PopTag(prev)
	s.Run()
	rs := s.RunStats()
	if rs.Dispatched != 1 || rs.QueueHighWater != 1 {
		t.Errorf("dispatched/hwm = %d/%d, want 1/1", rs.Dispatched, rs.QueueHighWater)
	}
	if rs.Virtual != Time(3*time.Second) {
		t.Errorf("virtual = %v", rs.Virtual)
	}
	if rs.Wall != 0 || len(rs.Tags) != 0 {
		t.Errorf("uninstrumented run has wall=%v tags=%v", rs.Wall, rs.Tags)
	}
}

func TestRunStatsWall(t *testing.T) {
	s := NewScheduler(1)
	s.Instrument()
	s.Schedule(time.Minute, func() {
		busy := time.Now()
		for time.Since(busy) < time.Millisecond {
		}
	})
	s.Run()
	rs := s.RunStats()
	if rs.Wall <= 0 {
		t.Fatalf("instrumented run measured no wall time")
	}
	if len(rs.Tags) != 1 || rs.Tags[0].Events != 1 {
		t.Errorf("tags = %+v", rs.Tags)
	}
}

// Tag plumbing must not allocate or measurably slow the kernel when
// instrumentation is off: this is the hot path of every simulation.
func TestStepZeroAllocUninstrumented(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now(), fn)
		s.Step()
	})
	// One allocation per At (the event itself) is the pre-existing cost;
	// dispatch must add none.
	if allocs > 2 {
		t.Errorf("schedule+step allocates %.1f objects/op", allocs)
	}
}

func BenchmarkStepUninstrumented(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(s.Now(), fn)
		s.Step()
	}
}

func BenchmarkStepInstrumented(b *testing.B) {
	s := NewScheduler(1)
	s.Instrument()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(s.Now(), fn)
		s.Step()
	}
}

// A timer re-armed from within its own expiry handler keeps reporting
// under the tag it was originally scheduled with: the handler runs with
// its event's tag active, so the Reset's new event inherits it. The same
// mechanism keeps a Ticker on its original tag across every rearm.
func TestRescheduledTimerInheritsTag(t *testing.T) {
	s := NewScheduler(1)
	s.Instrument()

	fires := 0
	var tm *Timer
	prev := s.PushTag("pim")
	tm = NewTimer(s, func() {
		fires++
		if fires < 3 {
			tm.Reset(time.Second) // no PushTag here: must inherit "pim"
		}
	})
	tm.Reset(time.Second)
	s.PopTag(prev)

	prev = s.PushTag("mld")
	tk := NewTicker(s, time.Second, 0, func() {})
	s.PopTag(prev)

	s.RunFor(5 * time.Second)
	tk.Stop()

	got := map[string]uint64{}
	for _, ts := range s.RunStats().Tags {
		got[ts.Tag] = ts.Events
	}
	if got["pim"] != 3 {
		t.Errorf("timer fired %d events under \"pim\", want 3 (rearms must inherit)", got["pim"])
	}
	if got["mld"] != 5 {
		t.Errorf("ticker fired %d events under \"mld\", want 5 (rearms must inherit)", got["mld"])
	}
}

// PushTag nests to arbitrary depth, restoring the enclosing tag at each
// PopTag, including from inside running handlers.
func TestPushPopTagDeepNesting(t *testing.T) {
	s := NewScheduler(1)
	s.Instrument()

	p1 := s.PushTag("l1")
	p2 := s.PushTag("l2")
	p3 := s.PushTag("l3")
	s.Schedule(time.Second, func() {})
	s.PopTag(p3)
	s.Schedule(time.Second, func() {})
	s.PopTag(p2)
	s.Schedule(time.Second, func() {})
	s.PopTag(p1)
	if s.curTag != "" {
		t.Errorf("tag after unwinding = %q, want empty", s.curTag)
	}
	s.Schedule(time.Second, func() {
		// Inside a handler the event's own tag is active; a nested bracket
		// must restore it, not the empty tag.
		p := s.PushTag("inner")
		if p != "" {
			t.Errorf("prev inside untagged handler = %q", p)
		}
		s.PopTag(p)
	})
	s.Run()

	got := map[string]uint64{}
	for _, ts := range s.RunStats().Tags {
		got[ts.Tag] = ts.Events
	}
	for tag, want := range map[string]uint64{"l1": 1, "l2": 1, "l3": 1, "": 1} {
		if got[tag] != want {
			t.Errorf("tag %q events = %d, want %d", tag, got[tag], want)
		}
	}
}

// The high-water mark is monotonic: draining never lowers it, and it only
// rises when a later burst exceeds every earlier one.
func TestQueueHighWaterMonotonic(t *testing.T) {
	s := NewScheduler(1)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			s.Schedule(time.Duration(i)*time.Millisecond, func() {})
		}
		s.Run()
	}
	fill(7)
	if got := s.QueueHighWater(); got != 7 {
		t.Fatalf("hwm after burst of 7 = %d", got)
	}
	fill(3) // smaller burst: mark must hold
	if got := s.QueueHighWater(); got != 7 {
		t.Errorf("hwm lowered to %d by a smaller burst", got)
	}
	fill(9) // larger burst: mark must rise
	if got := s.QueueHighWater(); got != 9 {
		t.Errorf("hwm after burst of 9 = %d", got)
	}
}

// With LabelProfiles on, the dispatch goroutine carries tag=<handler tag>
// pprof labels while a handler runs — visible in a labeled goroutine
// profile taken from inside the handler.
func TestLabelProfilesAppliedDuringDispatch(t *testing.T) {
	s := NewScheduler(1)
	s.LabelProfiles()
	if !s.ProfileLabeled() {
		t.Fatal("ProfileLabeled false after LabelProfiles")
	}

	grab := func() string {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var tagged, untagged string
	prev := s.PushTag("pim")
	s.Schedule(time.Second, func() { tagged = grab() })
	s.PopTag(prev)
	s.Schedule(2*time.Second, func() { untagged = grab() })
	s.Run()

	if !strings.Contains(tagged, `"tag":"pim"`) {
		t.Errorf("goroutine profile inside tagged handler lacks tag=pim label:\n%s", tagged)
	}
	if !strings.Contains(untagged, `"tag":"untagged"`) {
		t.Errorf("goroutine profile inside untagged handler lacks tag=untagged label:\n%s", untagged)
	}
}
