package mld

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// listenersRig is one Listeners database with its callbacks recorded as
// "<time> query <group>" and "<time> +<group>" / "<time> -<group>" lines.
type listenersRig struct {
	s   *sim.Scheduler
	l   *Listeners
	log []string
}

func newListenersRig(cfg Config) *listenersRig {
	r := &listenersRig{s: sim.NewScheduler(1)}
	r.l = NewListeners(r.s, cfg, func(g ipv6.Addr) {
		r.log = append(r.log, fmt.Sprintf("%v query %v", r.s.Now(), g))
	}, func(g ipv6.Addr, present bool) {
		sign := "-"
		if present {
			sign = "+"
		}
		r.log = append(r.log, fmt.Sprintf("%v %s%v", r.s.Now(), sign, g))
	})
	return r
}

// at runs fn at virtual time d.
func (r *listenersRig) at(d time.Duration, fn func()) { r.s.At(sim.Time(d), fn) }

func (r *listenersRig) expect(t *testing.T, want ...string) {
	t.Helper()
	r.s.Run()
	if !reflect.DeepEqual(r.log, want) {
		t.Fatalf("callbacks:\n got %q\nwant %q", r.log, want)
	}
}

func TestListeners(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Robustness = 3
	g2 := ipv6.MustParseAddr("ff0e::102")
	li := cfg.ListenerInterval() // 385 s at Robustness 3

	t.Run("report-refresh-expiry", func(t *testing.T) {
		r := newListenersRig(cfg)
		r.l.Report(g2)
		r.l.Report(group)
		r.l.Report(group) // a refresh reports nothing
		if got := r.l.Groups(); len(got) != 2 || got[0] != group || got[1] != g2 || r.l.Len() != 2 {
			t.Fatalf("Groups = %v, Len = %d", got, r.l.Len())
		}
		r.at(100*time.Second, func() { r.l.Report(group) })
		r.at(100*time.Second+li-time.Nanosecond, func() {
			if !r.l.Has(group) || r.l.Has(g2) {
				t.Errorf("just before the refreshed expiry: Has(group)=%t Has(g2)=%t", r.l.Has(group), r.l.Has(g2))
			}
		})
		r.expect(t, "0.000s +ff0e::102", "0.000s +ff0e::101",
			fmt.Sprintf("%v -ff0e::102", sim.Time(li)),
			fmt.Sprintf("%v -ff0e::101", sim.Time(100*time.Second+li)))
	})

	t.Run("done-queries-robustness-times", func(t *testing.T) {
		r := newListenersRig(cfg)
		r.l.Report(group)
		r.l.Done(g2) // no listener: ignored
		r.at(10*time.Second, func() { r.l.Done(group) })
		r.expect(t, "0.000s +ff0e::101", "10.000s query ff0e::101", "11.000s query ff0e::101",
			"12.000s query ff0e::101", "13.000s -ff0e::101")
	})

	t.Run("report-ends-round", func(t *testing.T) {
		r := newListenersRig(cfg)
		r.l.Report(group)
		r.at(10*time.Second, func() { r.l.Done(group) })
		r.at(10500*time.Millisecond, func() { r.l.Report(group) })
		r.expect(t, "0.000s +ff0e::101", "10.000s query ff0e::101",
			fmt.Sprintf("%v -ff0e::101", sim.Time(10500*time.Millisecond+li)))
	})

	t.Run("non-querier-lowering", func(t *testing.T) {
		r := newListenersRig(cfg)
		r.l.Report(group)
		r.l.SpecificQueryHeard(g2) // no listener: ignored
		r.at(10*time.Second, func() { r.l.SpecificQueryHeard(group) })
		// A second query never pushes the lowered timer out again.
		r.at(12*time.Second, func() { r.l.SpecificQueryHeard(group) })
		r.expect(t, "0.000s +ff0e::101", "13.000s -ff0e::101")
	})

	t.Run("stop", func(t *testing.T) {
		r := newListenersRig(cfg)
		r.l.Report(group)
		r.l.Report(g2)
		r.at(10*time.Second, func() { r.l.Done(group) })
		r.at(10500*time.Millisecond, func() {
			r.l.Stop()
			if r.l.Len() != 0 || r.l.Has(g2) {
				t.Errorf("after Stop: Len = %d, Has(g2) = %t", r.l.Len(), r.l.Has(g2))
			}
			if n := r.s.Pending(); n != 0 {
				t.Errorf("after Stop: %d events still queued", n)
			}
		})
		r.expect(t, "0.000s +ff0e::101", "0.000s +ff0e::102", "10.000s query ff0e::101")
	})
}
