package sim

import "time"

// Timer is a restartable virtual-time timer with the Reset/Stop semantics of
// time.Timer, built on Scheduler events. Protocol state machines (MLD group
// membership timers, PIM (S,G) expiry, prune delays, binding lifetimes) are
// expressed with Timers.
//
// The zero value is not usable; create one with NewTimer or the Scheduler's
// AfterFunc-style helpers.
type Timer struct {
	s    *Scheduler
	fn   func()
	fire func() // t.expire, bound once so arming never allocates a closure
	ev   Event
}

// NewTimer returns a stopped timer that will run fn on the scheduler when it
// expires.
func NewTimer(s *Scheduler, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil func")
	}
	t := &Timer{s: s, fn: fn}
	t.fire = t.expire
	return t
}

// AfterFunc creates a timer and starts it with duration d.
func AfterFunc(s *Scheduler, d time.Duration, fn func()) *Timer {
	t := NewTimer(s, fn)
	t.Reset(d)
	return t
}

// Reset (re)arms the timer to fire after d. Any previously pending expiry is
// canceled first, so a Timer fires at most once per Reset.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	t.ev = t.s.Schedule(d, t.fire)
}

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Stop()
	t.ev = t.s.At(at, t.fire)
}

func (t *Timer) expire() {
	t.ev = Event{}
	t.fn()
}

// Stop disarms the timer. It reports whether the timer was running.
func (t *Timer) Stop() bool {
	was := t.ev.Cancel()
	t.ev = Event{}
	return was
}

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.ev.Pending() }

// Expiry returns the virtual time at which the timer will fire, or zero if
// the timer is not running.
func (t *Timer) Expiry() Time { return t.ev.When() }

// Remaining returns how much virtual time is left before expiry, or zero if
// the timer is not running.
func (t *Timer) Remaining() time.Duration {
	if !t.Running() {
		return 0
	}
	return t.ev.When().Sub(t.s.Now())
}

// Ticker repeatedly invokes a callback at a fixed virtual-time period, with
// optional uniform jitter. Periodic protocol chores (MLD Queries, PIM Hellos,
// Binding Update refreshes, CBR traffic sources) are expressed with Tickers.
type Ticker struct {
	s       *Scheduler
	period  time.Duration
	jitter  time.Duration
	fn      func()
	fire    func() // t.tick, bound once so arming never allocates a closure
	ev      Event
	stopped bool
}

// NewTicker returns a started ticker firing every period. If jitter > 0 each
// interval is lengthened by a uniform random amount in [0, jitter) drawn from
// the scheduler's deterministic source. The first firing happens after one
// (jittered) period; call FireNow for an immediate first tick.
func NewTicker(s *Scheduler, period time.Duration, jitter time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	t := &Ticker{s: s, period: period, jitter: jitter, fn: fn}
	t.fire = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.s.Schedule(t.period+t.s.Jitter("timer-jitter", t.jitter), t.fire)
}

func (t *Ticker) tick() {
	t.ev = Event{}
	t.fn()
	// fn may have stopped the ticker; only rearm if still live.
	if !t.stopped {
		t.arm()
	}
}

// FireNow runs the callback immediately (at the current instant) without
// disturbing the periodic schedule. A stopped ticker's callback does not
// run.
func (t *Ticker) FireNow() {
	if t.stopped {
		return
	}
	t.fn()
}

// SetPeriod changes the period for subsequent ticks. On a running ticker
// the currently pending tick is rescheduled relative to now; on a stopped
// ticker only the stored period changes — the ticker stays stopped.
func (t *Ticker) SetPeriod(period time.Duration) {
	if period <= 0 {
		panic("sim: SetPeriod with non-positive period")
	}
	t.period = period
	if t.stopped {
		return
	}
	// Within the tick callback no event is pending; the rearm after fn
	// returns picks up the new period.
	if t.ev.Pending() {
		t.ev.Cancel()
		t.arm()
	}
}

// Stop halts the ticker. The callback will not run again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = Event{}
}

// Running reports whether the ticker is still active.
func (t *Ticker) Running() bool { return !t.stopped }
