// Package metrics measures what the paper argues about: per-link bandwidth
// by traffic class (multicast data, tunnel overhead, MLD / PIM / NDP /
// Mobile IPv6 signaling), per-receiver delivery continuity (join delay,
// leave-delay waste, loss, path hops), and system load counters.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/trace"
)

// Class partitions wire traffic for accounting.
type Class int

// Traffic classes.
const (
	ClassData    Class = iota // multicast application data (innermost)
	ClassTunnel               // encapsulation overhead bytes (outer headers)
	ClassMLD                  // MLD queries/reports/dones
	ClassNDP                  // router discovery / SLAAC
	ClassPIM                  // PIM control
	ClassMIPv6                // binding updates/acks (signaling)
	ClassUnicast              // other unicast (tunneled payloads that are unicast data)
	ClassOther
	numClasses
)

// classNames are the classes' names, in accounting order.
var classNames = [numClasses]string{"data", "tunnel-ovh", "mld", "ndp", "pim", "mipv6", "unicast", "other"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return "other"
	}
	return classNames[c]
}

// kindClass is the accounting class of each transmission kind but
// trace.KindFragment, whose class ClassOf reads from its header.
var kindClass = [trace.NumKinds]Class{
	trace.KindData: ClassData,
	trace.KindUDP:  ClassUnicast,
	trace.KindBU:   ClassMIPv6, trace.KindBAck: ClassMIPv6, trace.KindBReq: ClassMIPv6,
	trace.KindMLDQuery: ClassMLD, trace.KindMLDReport: ClassMLD, trace.KindMLDDone: ClassMLD,
	trace.KindNDPRS: ClassNDP, trace.KindNDPRA: ClassNDP,
	trace.KindPIMHello: ClassPIM, trace.KindPIMJoinPrune: ClassPIM, trace.KindPIMJoin: ClassPIM, trace.KindPIMPrune: ClassPIM,
	trace.KindPIMGraft: ClassPIM, trace.KindPIMGraftAck: ClassPIM, trace.KindPIMAssert: ClassPIM, trace.KindPIMStateRefresh: ClassPIM,
	trace.KindHPIMInterest: ClassPIM, trace.KindHPIMNoInterest: ClassPIM, trace.KindHPIMAck: ClassPIM, trace.KindPIMBad: ClassPIM,
	trace.KindFragment: ClassOther, trace.KindICMP6: ClassOther, trace.KindICMP6Bad: ClassOther,
	trace.KindNone: ClassOther, trace.KindProto: ClassOther,
}

// ClassOf returns the class of pkt's trace.Kind and its tunnel depth. A
// fragment of a tunnel packet, which cannot be walked into, is ClassTunnel
// as a whole: tunnel-MTU fragmentation is itself a cost of tunneling. Any
// other fragment is data or unicast by its destination.
func ClassOf(pkt *ipv6.Packet) (Class, int) {
	kind, depth := trace.Classify(pkt)
	if kind != trace.KindFragment {
		return kindClass[kind], depth
	}
	switch {
	case pkt.Proto == ipv6.ProtoIPv6:
		return ClassTunnel, 0
	case pkt.Hdr.Dst.IsMulticast():
		return ClassData, 0
	}
	return ClassUnicast, 0
}

// Split classifies one transmitted frame into per-class byte counts,
// indexed by Class. A tunneled frame is split: each encapsulation layer's
// 40-byte outer header counts as ClassTunnel, the innermost packet counts
// under its own class — so "tunnel overhead" measures exactly the extra
// bytes tunneling costs. The counts come back by value, so per-frame taps
// (the Accountant watches every link) allocate nothing.
func Split(pkt *ipv6.Packet, wireLen int) (counts [numClasses]int) {
	class, depth := ClassOf(pkt)
	overhead := depth * ipv6.TunnelOverheadBytes
	counts[ClassTunnel] += overhead
	counts[class] += wireLen - overhead
	return
}

// LinkCounters accumulates per-class bytes and frames for one link.
type LinkCounters struct {
	Link   *netem.Link
	Bytes  [numClasses]uint64
	Frames [numClasses]uint64
}

// Total returns all bytes across classes.
func (c *LinkCounters) Total() uint64 {
	var t uint64
	for _, b := range c.Bytes {
		t += b
	}
	return t
}

// Accountant taps every link of a network and keeps classified counters.
type Accountant struct {
	counters map[*netem.Link]*LinkCounters
	links    []*LinkCounters // in watch order
}

// NewAccountant taps all current links of net.
func NewAccountant(net *netem.Network) *Accountant {
	a := &Accountant{counters: map[*netem.Link]*LinkCounters{}}
	for _, l := range net.Links {
		a.Watch(l)
	}
	return a
}

// Watch starts accounting on one link.
func (a *Accountant) Watch(l *netem.Link) {
	if _, ok := a.counters[l]; ok {
		return
	}
	c := &LinkCounters{Link: l}
	a.counters[l] = c
	a.links = append(a.links, c)
	l.AddTap(func(ev netem.TxEvent) {
		for class, bytes := range Split(ev.Pkt, len(ev.Frame)) {
			if bytes == 0 {
				continue
			}
			c.Bytes[class] += uint64(bytes)
			c.Frames[class]++
		}
	})
}

// Of returns the counters for one link (nil if unwatched).
func (a *Accountant) Of(l *netem.Link) *LinkCounters { return a.counters[l] }

// TotalBytes sums one class over all links.
func (a *Accountant) TotalBytes(class Class) uint64 {
	var t uint64
	for _, c := range a.links {
		t += c.Bytes[class]
	}
	return t
}

// TotalAll sums every class over all links.
func (a *Accountant) TotalAll() uint64 {
	var t uint64
	for _, c := range a.links {
		t += c.Total()
	}
	return t
}

// Snapshot returns per-link counters in watch order.
func (a *Accountant) Snapshot() []*LinkCounters { return slices.Clone(a.links) }

// Summary renders a per-link, per-class byte table.
func (a *Accountant) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "link")
	for _, name := range classNames {
		fmt.Fprintf(&b, "%12s", name)
	}
	fmt.Fprintf(&b, "%12s\n", "total")
	for _, lc := range a.links {
		fmt.Fprintf(&b, "%-8s", lc.Link.Name)
		for _, n := range lc.Bytes {
			fmt.Fprintf(&b, "%12d", n)
		}
		fmt.Fprintf(&b, "%12d\n", lc.Total())
	}
	return b.String()
}

// Delivery is one datagram reception at one receiver.
type Delivery struct {
	Seq  uint64
	At   sim.Time
	Hops int // routers crossed end to end (tunnel legs included)
}

// FlowProbe tracks one receiver's view of one CBR flow: which sequence
// numbers arrived when, with gap analysis for join/leave delay studies.
type FlowProbe struct {
	Name       string
	Deliveries []Delivery
	// seen has bit seq set once seq arrived. A CBR source numbers its
	// datagrams densely from 1, so the set grows with the flow, not with
	// the receptions.
	seen       []uint64
	Duplicates uint64
}

// NewFlowProbe creates an empty probe.
func NewFlowProbe(name string) *FlowProbe {
	return &FlowProbe{Name: name}
}

// Record notes the arrival of sequence number seq at time at.
func (p *FlowProbe) Record(seq uint64, at sim.Time, hops int) {
	w, bit := seq/64, uint64(1)<<(seq%64)
	if w >= uint64(len(p.seen)) {
		p.seen = append(p.seen, make([]uint64, w+1-uint64(len(p.seen)))...)
	}
	if p.seen[w]&bit != 0 {
		p.Duplicates++
		return
	}
	p.seen[w] |= bit
	p.Deliveries = append(p.Deliveries, Delivery{Seq: seq, At: at, Hops: hops})
}

// Count returns distinct datagrams received.
func (p *FlowProbe) Count() int { return len(p.Deliveries) }

// FirstAfter returns the earliest delivery at or after t, and whether one
// exists. The join delay after a move at time t is FirstAfter(t).At - t.
func (p *FlowProbe) FirstAfter(t sim.Time) (Delivery, bool) {
	for _, d := range p.Deliveries {
		if d.At >= t {
			return d, true
		}
	}
	return Delivery{}, false
}

// LastBefore returns the latest delivery strictly before t.
func (p *FlowProbe) LastBefore(t sim.Time) (Delivery, bool) {
	var out Delivery
	ok := false
	for _, d := range p.Deliveries {
		if d.At < t {
			out, ok = d, true
		} else {
			break
		}
	}
	return out, ok
}

// CountBetween counts deliveries in [from, to).
func (p *FlowProbe) CountBetween(from, to sim.Time) int {
	n := 0
	for _, d := range p.Deliveries {
		if d.At >= from && d.At < to {
			n++
		}
	}
	return n
}

// MeanHops averages the path length over deliveries in [from, to); the
// routing-optimality criterion compares this against the unicast shortest
// path.
func (p *FlowProbe) MeanHops(from, to sim.Time) float64 {
	n, sum := 0, 0
	for _, d := range p.Deliveries {
		if d.At >= from && d.At < to {
			n++
			sum += d.Hops
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MaxGap returns the largest inter-delivery gap within [from, to).
func (p *FlowProbe) MaxGap(from, to sim.Time) (gap sim.Time) {
	var prev sim.Time
	started := false
	for _, d := range p.Deliveries {
		if d.At < from || d.At >= to {
			continue
		}
		if started {
			if g := d.At - prev; g > gap {
				gap = g
			}
		}
		prev = d.At
		started = true
	}
	return gap
}

// Row is one labeled row of numeric results.
type Row struct {
	Label  string
	Values map[string]float64
}

// Table renders rows as an aligned text table with the given column order.
// The benchmark harnesses use it to print the paper's tables.
func Table(title string, columns []string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	width := 14
	for _, c := range columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	labelW := 28
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for _, c := range columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for _, c := range columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(&b, "%*s", width, "-")
				continue
			}
			fmt.Fprintf(&b, "%*s", width, formatValue(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// SortedKeys returns map keys in sorted order (table-stability helper).
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
