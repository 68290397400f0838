package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// pingPong wires two regions exchanging timestamped messages with a fixed
// cross-region latency and records every event as "r<region>@<time>:<label>"
// in a shared (mutex-free: appended only at single-threaded moments) log.
// Messages are posted during windows, so the log exercises outbox merging.
func shardFixture(t *testing.T, workers int) []string {
	t.Helper()
	a := NewScheduler(1)
	b := NewScheduler(2)
	k := NewKernel([]*Scheduler{a, b}, 10*time.Millisecond, workers)

	var logA, logB []string // per-region logs, merged at the end
	const lat = 25 * time.Millisecond

	var ping, pong func(n int)
	ping = func(n int) {
		logA = append(logA, fmt.Sprintf("rA@%v:ping%d", a.Now(), n))
		if n < 40 {
			// Random per-region work that must not disturb the other side.
			a.Schedule(time.Duration(a.RandFor("work").Int63n(int64(time.Millisecond))), func() {})
			a.Post(b, a.Now().Add(lat), func() { pong(n) })
		}
	}
	pong = func(n int) {
		logB = append(logB, fmt.Sprintf("rB@%v:pong%d", b.Now(), n))
		b.Post(a, b.Now().Add(lat), func() { ping(n + 1) })
	}
	a.Schedule(0, func() { ping(0) })

	k.RunUntil(Time(5 * time.Second))
	if a.Now() != Time(5*time.Second) || b.Now() != Time(5*time.Second) {
		t.Fatalf("clocks not at deadline: %v / %v", a.Now(), b.Now())
	}
	return append(append([]string{}, logA...), logB...)
}

// The timeline must be byte-identical no matter how many workers drive the
// window executions.
func TestKernelDeterministicAcrossWorkers(t *testing.T) {
	w1 := shardFixture(t, 1)
	w8 := shardFixture(t, 8)
	if len(w1) == 0 {
		t.Fatal("fixture recorded nothing")
	}
	if len(w1) != len(w8) {
		t.Fatalf("log lengths differ: %d vs %d", len(w1), len(w8))
	}
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Fatalf("logs diverge at %d: %q vs %q", i, w1[i], w8[i])
		}
	}
}

// Cross-region messages must arrive at their exact timestamps and in send
// order, and the ping-pong must complete (no message lost at any barrier).
func TestKernelMessageTiming(t *testing.T) {
	log := shardFixture(t, 4)
	// 41 pings (0..40) and 41 pongs (0..40): ping40 does not send.
	wantPings, wantPongs := 41, 41
	pings, pongs := 0, 0
	for _, l := range log {
		if l[1] == 'A' {
			pings++
		} else {
			pongs++
		}
	}
	if pings != wantPings || pongs != wantPongs-1 {
		t.Fatalf("got %d pings, %d pongs; want %d, %d", pings, pongs, wantPings, wantPongs-1)
	}
	// ping n happens at exactly n * 50ms (two 25ms legs per round trip).
	if want := "rA@0.000s:ping0"; log[0] != want {
		t.Fatalf("log[0] = %q, want %q", log[0], want)
	}
	if want := "rA@2.000s:ping40"; log[40] != want {
		t.Fatalf("log[40] = %q, want %q", log[40], want)
	}
}

// Periodic hooks run at exact multiples of their period with all clocks at
// the due time, and driver actions run at their exact times ahead of hooks
// due at the same instant. Both see every event before their time and none
// at it, in a lone region as in two.
func TestKernelBarrierHooks(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("regions=%d", n), func(t *testing.T) {
			scheds := make([]*Scheduler, n)
			for i := range scheds {
				scheds[i] = NewScheduler(int64(i + 1))
			}
			k := NewKernel(scheds, time.Millisecond, 2)
			a := scheds[0]

			// Background load so windows stay short; it ticks exactly at 3 s.
			var tick func()
			tick = func() { a.Schedule(300*time.Microsecond, tick) }
			tick()

			// One event 1 ns before and one exactly at every forced time,
			// in every region. Each region's log is written only by its own
			// events and read only at barriers.
			forced := []Time{Time(time.Second), Time(2 * time.Second), Time(2500 * time.Millisecond), Time(3 * time.Second)}
			ran := make([]map[Time]bool, n)
			for i, s := range scheds {
				i, s := i, s
				ran[i] = map[Time]bool{}
				for _, ft := range forced {
					for _, at := range []Time{ft - 1, ft} {
						s.At(at, func() { ran[i][s.Now()] = true })
					}
				}
			}
			check := func(what string) {
				at := a.Now()
				for i, s := range scheds {
					if s.Now() != at {
						t.Fatalf("%s saw torn clocks: %v vs region %d at %v", what, at, i, s.Now())
					}
					if next, ok := s.NextEventTime(); ok && next < at {
						t.Fatalf("%s at %v ran before region %d's event at %v", what, at, i, next)
					}
					if !ran[i][at-1] || ran[i][at] {
						t.Fatalf("%s at %v: region %d ran the event 1 ns before: %v, at the same instant: %v",
							what, at, i, ran[i][at-1], ran[i][at])
					}
				}
			}

			var samples []Time
			k.Every(time.Second, func() {
				check("hook")
				samples = append(samples, a.Now())
			})
			var actions []Time
			for _, at := range []Time{Time(2 * time.Second), Time(2500 * time.Millisecond)} {
				k.At(at, func() {
					check("action")
					// Hooks due before the action have run; one due with
					// it has not.
					if want := int((a.Now() - 1) / Time(time.Second)); len(samples) != want {
						t.Fatalf("action at %v found %d samples taken, want %d", a.Now(), len(samples), want)
					}
					actions = append(actions, a.Now())
				})
			}

			k.RunUntil(Time(3 * time.Second))
			if len(samples) != 3 {
				t.Fatalf("got %d samples, want 3 (%v)", len(samples), samples)
			}
			for i, s := range samples {
				if want := Time(time.Duration(i+1) * time.Second); s != want {
					t.Fatalf("sample %d at %v, want %v", i, s, want)
				}
			}
			if len(actions) != 2 || actions[0] != Time(2*time.Second) || actions[1] != Time(2500*time.Millisecond) {
				t.Fatalf("driver actions ran at %v, want [2s 2.5s]", actions)
			}
			for i := range scheds {
				for _, ft := range forced {
					if !ran[i][ft] {
						t.Fatalf("region %d never ran its event at %v", i, ft)
					}
				}
			}
		})
	}
}

// Fold hooks run at every barrier; a shards=1 kernel degenerates to the
// sequential scheduler (events, clock and inclusive-deadline semantics).
// With no other region to post into it, a lone region's lookahead never
// ends a window: a RunUntil with no action or hook due is one window.
func TestKernelSingleRegionMatchesSequential(t *testing.T) {
	run := func(mk func(s *Scheduler, until Time)) []Time {
		s := NewScheduler(7)
		var log []Time
		var rearm func()
		rearm = func() {
			log = append(log, s.Now())
			s.Schedule(time.Duration(s.RandFor("x").Int63n(int64(100*time.Millisecond)))+time.Millisecond, rearm)
		}
		s.Schedule(0, rearm)
		mk(s, Time(2*time.Second))
		return log
	}
	seq := run(func(s *Scheduler, until Time) { s.RunUntil(until) })
	var k *Kernel
	par := run(func(s *Scheduler, until Time) {
		k = NewKernel([]*Scheduler{s}, time.Millisecond, 1)
		k.RunUntil(until)
	})
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("timelines diverge at %d: %v vs %v", i, seq[i], par[i])
		}
	}
	if w := k.Windows(); w != 1 {
		t.Fatalf("lone region ran %d windows to a deadline with nothing forced, want 1", w)
	}

	// A lone region needs no lookahead; two regions do.
	NewKernel([]*Scheduler{NewScheduler(1)}, 0, 1).RunUntil(Time(time.Second))
	defer func() {
		if recover() == nil {
			t.Fatal("NewKernel accepted two regions with no lookahead")
		}
	}()
	NewKernel([]*Scheduler{NewScheduler(1), NewScheduler(2)}, 0, 1)
}

// timerRingFixture runs four regions that pass tokens to each other and,
// on every arrival, re-arm one of their own expiry timers to a random time
// earlier or later than its current one, or stop one — the (S,G) data
// timeout pattern, inside kernel windows. It returns every region's log
// followed by its final sequence counter and pending queue.
func timerRingFixture(workers int) string {
	const regions, timers = 4, 8
	scheds := make([]*Scheduler, regions)
	for r := range scheds {
		scheds[r] = NewScheduler(DeriveSeed(11, fmt.Sprintf("region-%d", r)))
	}
	k := NewKernel(scheds, 2*time.Millisecond, workers)
	logs := make([][]string, regions)
	expiry := make([][]*Timer, regions)
	for r, s := range scheds {
		r, s := r, s
		for j := 0; j < timers; j++ {
			j := j
			expiry[r] = append(expiry[r], NewTimer(s, func() {
				logs[r] = append(logs[r], fmt.Sprintf("%v expire%d seq=%d pending=%d", s.Now(), j, s.SeqCounter(), s.Pending()))
			}))
		}
	}
	var hop func(r, token, n int)
	hop = func(r, token, n int) {
		s := scheds[r]
		rng := s.RandFor("ring")
		expiry[r][rng.Intn(timers)].Reset(time.Duration(rng.Int63n(int64(30 * time.Millisecond))))
		if rng.Intn(4) == 0 {
			expiry[r][rng.Intn(timers)].Stop()
		}
		logs[r] = append(logs[r], fmt.Sprintf("%v token%d hop%d seq=%d pending=%d", s.Now(), token, n, s.SeqCounter(), s.Pending()))
		if n < 300 {
			dst := (r + 1 + rng.Intn(regions-1)) % regions
			at := s.Now().Add(2*time.Millisecond + time.Duration(rng.Int63n(int64(3*time.Millisecond))))
			s.Post(scheds[dst], at, func() { hop(dst, token, n+1) })
		}
	}
	for r, s := range scheds {
		r := r
		for token := 0; token < 3; token++ {
			token := token
			s.Schedule(time.Duration(token)*time.Millisecond, func() { hop(r, r*3+token, 0) })
		}
	}
	k.RunUntil(Time(2 * time.Second))
	var out []byte
	for r, s := range scheds {
		for _, l := range logs[r] {
			out = fmt.Appendf(out, "r%d %s\n", r, l)
		}
		out = fmt.Appendf(out, "r%d end seq=%d pending=%v\n", r, s.SeqCounter(), s.PendingEvents())
	}
	return string(out)
}

// Re-arming and stopping timers inside windows must give byte-identical
// timelines at one worker and four (run under -race, so regions that
// shared queue state would also fail there).
func TestKernelTimerResetAcrossWorkers(t *testing.T) {
	w1, w4 := timerRingFixture(1), timerRingFixture(4)
	if !strings.Contains(w1, "expire") || !strings.Contains(w1, "hop300") {
		t.Fatalf("fixture did not exercise both expiries and full token rings:\n%.2000s", w1)
	}
	if w1 != w4 {
		t.Fatalf("workers 1 and 4 diverge:\n--- w1\n%.2000s\n--- w4\n%.2000s", w1, w4)
	}
}

// logReceiver records each delivery as "<region>@<time>:<label> tag=<tag>",
// with the scheduler in operand A and the label in operand B.
type logReceiver struct{ log *[]string }

func (r logReceiver) Receive(d Delivery) {
	s := d.A.(*Scheduler)
	*r.log = append(*r.log, fmt.Sprintf("r%d@%v:%s tag=%s", s.Region(), s.Now(), d.B, s.curTag))
}

// TestDeliverOrdersLikePost: a typed delivery takes the place a closure
// posted at the same point would take — same time, same order among the
// events around it, same tag — within a region and across regions.
func TestDeliverOrdersLikePost(t *testing.T) {
	run := func(typed bool) []string {
		a, b := NewScheduler(1), NewScheduler(2)
		k := NewKernel([]*Scheduler{a, b}, 5*time.Millisecond, 2)
		var logA, logB []string
		post := func(src, dst *Scheduler, log *[]string, at Time, label string) {
			if typed {
				src.Deliver(dst, at, Delivery{To: logReceiver{log}, A: dst, B: label})
				return
			}
			src.Post(dst, at, func() {
				*log = append(*log, fmt.Sprintf("r%d@%v:%s tag=%s", dst.Region(), dst.Now(), label, dst.curTag))
			})
		}
		a.Schedule(0, func() {
			for i := 0; i < 6; i++ {
				prev := a.PushTag(fmt.Sprintf("t%d", i%3))
				at := a.Now().Add(10*time.Millisecond + time.Duration(i%2)*time.Millisecond)
				post(a, b, &logB, at, fmt.Sprintf("x%d", i))
				post(a, a, &logA, at, fmt.Sprintf("l%d", i))
				// Closures around the deliveries at the same instants.
				a.Post(b, at, func() { logB = append(logB, fmt.Sprintf("r1@%v:closure tag=%s", b.Now(), b.curTag)) })
				a.At(at, func() { logA = append(logA, fmt.Sprintf("r0@%v:closure tag=%s", a.Now(), a.curTag)) })
				a.PopTag(prev)
			}
		})
		k.RunUntil(Time(50 * time.Millisecond))
		return append(logA, logB...)
	}
	closures, typed := run(false), run(true)
	if len(closures) != 4*6 {
		t.Fatalf("closure run logged %d events, want 24", len(closures))
	}
	if strings.Join(closures, "\n") != strings.Join(typed, "\n") {
		t.Fatalf("typed deliveries ran differently:\nclosures:\n%s\ntyped:\n%s", strings.Join(closures, "\n"), strings.Join(typed, "\n"))
	}
}
