package mip6mcast

import (
	"testing"
	"time"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/mld"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

func TestNewRunWiring(t *testing.T) {
	r := NewRun(DefaultOptions(), LocalMembership, 100*time.Millisecond, 64)
	if len(r.Services) != 4 {
		t.Fatalf("services = %d", len(r.Services))
	}
	nHA := 0
	for _, name := range r.F.RouterOrder() {
		nHA += len(r.F.Routers[name].HAServices)
	}
	if nHA != 6 {
		t.Fatalf("HA services = %d, want one per link", nHA)
	}
	if len(r.Probes) != 3 {
		t.Fatalf("probes = %d", len(r.Probes))
	}
	r.F.Run(30 * time.Second)
	if r.CBR.Sent < 290 {
		t.Fatalf("CBR sent %d", r.CBR.Sent)
	}
	for name, p := range r.Probes {
		if p.Count() == 0 {
			t.Errorf("probe %s empty", name)
		}
	}
}

func TestRunApproachAdaptsHostMLD(t *testing.T) {
	// Tunnel-receive approaches must not re-report on foreign links.
	r := NewRun(DefaultOptions(), BidirectionalTunnel, 100*time.Millisecond, 64)
	if r.F.Opt.ResendOnMove {
		t.Fatal("ResendOnMove left enabled for tunnel reception")
	}
	r2 := NewRun(DefaultOptions(), LocalMembership, 100*time.Millisecond, 64)
	if !r2.F.Opt.ResendOnMove {
		t.Fatal("ResendOnMove disabled for local membership")
	}
}

// Options.MLD is the one MLD timer set: setting it, and nothing else,
// retunes every querier, host listener, home-agent service and proxy host
// role of a proxy-hierarchy Figure 1 build. FastMLDOptions sets only it.
func TestOneMLDTimerSetReachesEveryRole(t *testing.T) {
	opt := DefaultOptions()
	opt.MLD = mld.FastConfig(7 * time.Second)
	if opt.MLD == DefaultOptions().MLD {
		t.Fatal("FastConfig(7s) equals the default timer set; the test would prove nothing")
	}
	if fast := FastMLDOptions(7); fast.MLD != opt.MLD || !fast.ResendOnMove {
		t.Errorf("FastMLDOptions(7) gives MLD %+v, ResendOnMove %v; want %+v and the default true", fast.MLD, fast.ResendOnMove, opt.MLD)
	}
	f := NewRun(opt, ProxyHierarchy, 100*time.Millisecond, 64).F
	var services, proxies int
	for _, name := range f.RouterOrder() {
		r := f.Routers[name]
		if r.MLD.Config != opt.MLD {
			t.Errorf("querier %s runs %+v, want %+v", name, r.MLD.Config, opt.MLD)
		}
		for _, svc := range r.HAServices {
			services++
			if svc.Timers != opt.MLD {
				t.Errorf("home-agent service on %s runs %+v, want %+v", name, svc.Timers, opt.MLD)
			}
		}
		if px := f.ProxyOf(name); px != nil {
			proxies++
			if got := px.Host().Config.Config; got != opt.MLD {
				t.Errorf("proxy host role on %s runs %+v, want %+v", name, got, opt.MLD)
			}
		}
	}
	for _, name := range scenario.HostNames() {
		if got := f.Hosts[name].MLD.Config.Config; got != opt.MLD {
			t.Errorf("host %s runs %+v, want %+v", name, got, opt.MLD)
		}
	}
	if services == 0 || proxies == 0 {
		t.Fatalf("build has %d home-agent services and %d proxies; want both", services, proxies)
	}
}

func TestLinkWatchWindows(t *testing.T) {
	r := NewRun(DefaultOptions(), LocalMembership, 100*time.Millisecond, 64)
	w := r.WatchLink("L4")
	r.F.Run(10 * time.Second)
	mid := r.F.Sched.Now()
	r.F.Run(10 * time.Second)

	if w.Frames == 0 || w.Bytes == 0 {
		t.Fatal("watcher saw nothing")
	}
	after := w.BytesAfter(mid)
	if after == 0 || after >= w.Bytes {
		t.Fatalf("BytesAfter(mid) = %d of %d", after, w.Bytes)
	}
	n := w.FramesBetween(mid, r.F.Sched.Now())
	// ~100 frames in the second window.
	if n < 90 || n > 110 {
		t.Fatalf("FramesBetween = %d", n)
	}
	if w.First >= w.Last {
		t.Fatalf("First=%v Last=%v", w.First, w.Last)
	}
	// Same watcher handle on re-watch.
	if r.WatchLink("L4") != w {
		t.Fatal("WatchLink not idempotent")
	}
}

func TestJoinDelayHelper(t *testing.T) {
	r := NewRun(DefaultOptions(), LocalMembership, 100*time.Millisecond, 64)
	r.F.Run(20 * time.Second)
	// Delay relative to a past instant is the next delivery after it.
	d, ok := r.JoinDelay("R1", sim.Time(10*time.Second))
	if !ok || d < 0 || d > 200*time.Millisecond {
		t.Fatalf("JoinDelay = %v ok=%v", d, ok)
	}
	if _, ok := r.JoinDelay("R1", sim.Time(10*time.Hour)); ok {
		t.Fatal("future JoinDelay returned ok")
	}
}

func TestControlBytesAndHALoad(t *testing.T) {
	r := NewRun(DefaultOptions(), BidirectionalTunnel, 100*time.Millisecond, 64)
	r.F.Run(20 * time.Second)
	if r.ControlBytes() == 0 {
		t.Fatal("no control bytes with PIM+MLD running")
	}
	if r.HALoad() != 0 {
		t.Fatalf("HA load %d while everyone is at home", r.HALoad())
	}
	r.MoveHost("R3", "L6")
	r.F.Run(60 * time.Second)
	if r.HALoad() == 0 {
		t.Fatal("no HA load with a tunneled receiver")
	}
}

func TestOptimalRouterHops(t *testing.T) {
	r := NewRun(DefaultOptions(), LocalMembership, time.Second, 64)
	cases := []struct {
		from, to string
		want     int
	}{
		{"L1", "L1", 0},
		{"L1", "L2", 1},
		{"L1", "L4", 3},
		{"L1", "L6", 4},
		{"L4", "L1", 3},
	}
	for _, c := range cases {
		if got := r.OptimalRouterHops(c.from, c.to); got != c.want {
			t.Errorf("OptimalRouterHops(%s,%s) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestAddMobileReceiverIntegrates(t *testing.T) {
	r := NewRun(FastMLDOptions(30), LocalMembership, 100*time.Millisecond, 64)
	svc := r.AddMobileReceiver("X1", "L4", 0x7001)
	svc.Join(scenario.Group)
	r.F.Run(30 * time.Second)
	if r.Probes["X1"].Count() < 250 {
		t.Fatalf("extra receiver got %d", r.Probes["X1"].Count())
	}
	// And it roams like any host.
	moveAt := r.MoveHost("X1", "L6")
	r.F.Run(30 * time.Second)
	if d, ok := r.JoinDelay("X1", moveAt); !ok || d > 2*time.Second {
		t.Fatalf("extra receiver join delay = %v ok=%v", d, ok)
	}
}

func TestDeterminismAcrossIdenticalRuns(t *testing.T) {
	run := func() (uint64, int, uint64) {
		r := NewRun(DefaultOptions(), BidirectionalTunnel, 100*time.Millisecond, 64)
		r.F.Run(30 * time.Second)
		r.MoveHost("R3", "L6")
		r.F.Run(60 * time.Second)
		return r.F.Acct.TotalAll(), r.Probes["R3"].Count(), r.F.MulticastStats().DataForwarded
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("identical seeds diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
	opt := DefaultOptions()
	opt.Seed = 99
	r := NewRun(opt, BidirectionalTunnel, 100*time.Millisecond, 64)
	r.F.Run(30 * time.Second)
	r.MoveHost("R3", "L6")
	r.F.Run(60 * time.Second)
	if r.F.Acct.TotalAll() == a1 && r.Probes["R3"].Count() == b1 && r.F.MulticastStats().DataForwarded == c1 {
		t.Log("different seed produced identical aggregate (possible but suspicious)")
	}
}

func TestMetricsClassesPresent(t *testing.T) {
	// A tunnel run must populate every class the system generates.
	r := NewRun(DefaultOptions(), BidirectionalTunnel, 100*time.Millisecond, 64)
	r.F.Run(30 * time.Second)
	r.MoveHost("R3", "L6")
	r.F.Run(60 * time.Second)
	for _, c := range []metrics.Class{
		metrics.ClassData, metrics.ClassTunnel, metrics.ClassMLD,
		metrics.ClassNDP, metrics.ClassPIM, metrics.ClassMIPv6,
	} {
		if r.F.Acct.TotalBytes(c) == 0 {
			t.Errorf("class %s never seen on any link", c)
		}
	}
}
