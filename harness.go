package mip6mcast

import (
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

func secs(n int) time.Duration { return time.Duration(n) * time.Second }

// approachOptions applies an approach's build settings to opt: the host
// ResendOnMove setting core.RecommendedHostMLD gives it, and for
// proxy-hierarchy builds without a configured plan the depth 2 that peels
// Figure 1 (and any tree-shaped procedural topology) into its edge proxy
// domains via topo.AutoProxyDomains.
func approachOptions(opt scenario.Options, approach Approach) scenario.Options {
	opt.ResendOnMove = core.RecommendedHostMLD(approach, opt.ResendOnMove)
	if approach.Receive == core.ReceiveProxy && opt.ProxyDepth == 0 {
		opt.ProxyDepth = 2
	}
	return opt
}

// Run is one assembled experiment instance: the Figure 1 network with the
// core services attached under a single approach, a CBR source at host S,
// and delivery probes on the receivers.
type Run struct {
	F        *scenario.Network
	Approach Approach

	Services map[string]*core.Service
	Probes   map[string]*metrics.FlowProbe
	CBR      *scenario.CBR

	watchers map[string]*LinkWatch
}

// LinkWatch tracks multicast data-class traffic on one link with
// timestamps (for leave-delay and waste measurements).
type LinkWatch struct {
	Frames      int
	Bytes       uint64
	First, Last sim.Time
	samples     []linkSample
}

type linkSample struct {
	at    sim.Time
	bytes int
}

// BytesAfter returns data bytes transmitted strictly after t.
func (w *LinkWatch) BytesAfter(t sim.Time) uint64 {
	var total uint64
	for i := len(w.samples) - 1; i >= 0; i-- {
		if w.samples[i].at <= t {
			break
		}
		total += uint64(w.samples[i].bytes)
	}
	return total
}

// FramesBetween counts data frames in (from, to].
func (w *LinkWatch) FramesBetween(from, to sim.Time) int {
	n := 0
	for _, s := range w.samples {
		if s.at > from && s.at <= to {
			n++
		}
	}
	return n
}

// NewRun builds the network (whose routers run their home agents'
// services) and attaches the approach's service to every host. The
// receivers R1, R2, R3 join the group; S drives a CBR flow through its
// service (so its send mode follows the approach).
func NewRun(opt scenario.Options, approach Approach, cbrInterval time.Duration, cbrSize int) *Run {
	f := scenario.NewFigure1(approachOptions(opt, approach))
	r := &Run{
		F:        f,
		Approach: approach,
		Services: map[string]*core.Service{},
		Probes:   map[string]*metrics.FlowProbe{},
		watchers: map[string]*LinkWatch{},
	}

	// Host services.
	for _, name := range scenario.HostNames() {
		h := f.Hosts[name]
		r.Services[name] = core.NewService(h.MN, h.MLD, approach)
	}

	// Receivers join and get probes.
	for _, name := range []string{"R1", "R2", "R3"} {
		r.Services[name].Join(scenario.Group)
		probe := metrics.NewFlowProbe(name)
		r.Probes[name] = probe
		h := f.Hosts[name]
		scenario.AttachProbe(h.Node, f.Sched, 1, probe, h.OuterHops)
	}

	// The sender's CBR flow goes through its service.
	svc := r.Services["S"]
	r.CBR = scenario.NewCBR(f.Sched, 1, cbrInterval, cbrSize, func(payload []byte) {
		svc.Send(scenario.Group, payload)
	})
	return r
}

// AddMobileReceiver adds an extra mobile receiver host (home on homeLink)
// with a core service under the run's approach and a delivery probe.
func (r *Run) AddMobileReceiver(name, homeLink string, iid uint64) *core.Service {
	h := r.F.AddHost(name, homeLink, iid)
	svc := core.NewService(h.MN, h.MLD, r.Approach)
	r.Services[name] = svc
	probe := metrics.NewFlowProbe(name)
	r.Probes[name] = probe
	scenario.AttachProbe(h.Node, r.F.Sched, 1, probe, h.OuterHops)
	return svc
}

// WatchLink starts (or returns) a data-class watcher on a link.
func (r *Run) WatchLink(name string) *LinkWatch {
	if w, ok := r.watchers[name]; ok {
		return w
	}
	w := &LinkWatch{}
	r.watchers[name] = w
	sched := r.F.Sched
	r.F.Links[name].AddTap(func(ev netem.TxEvent) {
		if class, _ := metrics.ClassOf(ev.Pkt); class != metrics.ClassData {
			return
		}
		if w.Frames == 0 {
			w.First = sched.Now()
		}
		data := len(ev.Frame)
		w.Frames++
		w.Bytes += uint64(data)
		w.Last = sched.Now()
		w.samples = append(w.samples, linkSample{at: sched.Now(), bytes: data})
	})
	return w
}

// MoveHost reattaches a host and returns the (virtual) time of the move.
func (r *Run) MoveHost(host, link string) sim.Time {
	r.F.Move(host, link)
	return r.F.Sched.Now()
}

// JoinDelay computes how long after t the named receiver next received a
// datagram. ok is false if it never did.
func (r *Run) JoinDelay(receiver string, t sim.Time) (time.Duration, bool) {
	d, ok := r.Probes[receiver].FirstAfter(t)
	if !ok {
		return 0, false
	}
	return d.At.Sub(t), true
}

// ControlBytes sums the signaling classes (MLD + PIM + Mobile IPv6) over
// all links.
func (r *Run) ControlBytes() uint64 {
	a := r.F.Acct
	return a.TotalBytes(metrics.ClassMLD) + a.TotalBytes(metrics.ClassPIM) + a.TotalBytes(metrics.ClassMIPv6)
}

// HALoad sums home-agent packet-processing work (the paper's system-load
// criterion): intercepts, encapsulations and decapsulations.
func (r *Run) HALoad() uint64 {
	var t uint64
	for _, name := range r.F.RouterOrder() {
		for _, ha := range r.F.Routers[name].HomeAgents() {
			t += ha.PacketsIntercepted + ha.PacketsTunneled + ha.PacketsDetunneled
		}
	}
	return t
}

// OptimalRouterHops returns the unicast shortest-path router count between
// two links (the routing-optimality yardstick).
func (r *Run) OptimalRouterHops(fromLink, toLink string) int {
	if fromLink == toLink {
		return 0
	}
	f := r.F
	// Use the designated router of fromLink as the path's first router.
	for _, name := range scenario.RouterNames() {
		router := f.Routers[name]
		for _, ifc := range router.Node.Ifaces {
			if ifc.Link == f.Links[fromLink] {
				p, _ := f.Dom.PrefixOf(f.Links[toLink])
				if hops, ok := f.Dom.TableOf(router.Node).HopsTo(p.WithInterfaceID(1)); ok {
					return hops
				}
			}
		}
	}
	return -1
}
