// Package trace decodes link transmissions into typed, human-readable
// records: which MLD/PIM/Mobile-IPv6 message crossed which link when,
// through how many tunnel layers. The mip6trace CLI prints these records;
// tests use them to assert protocol sequences.
package trace

import (
	"fmt"
	"io"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// Event is one decoded transmission.
type Event struct {
	Time        sim.Time
	Link        string
	Kind        string // e.g. "data", "mld-report", "pim-prune", "bu"
	Src, Dst    ipv6.Addr
	Bytes       int
	TunnelDepth int
	Detail      string
}

// String renders one trace line.
func (e Event) String() string {
	tun := ""
	if e.TunnelDepth > 0 {
		tun = fmt.Sprintf(" tunnel=%d", e.TunnelDepth)
	}
	detail := ""
	if e.Detail != "" {
		detail = " " + e.Detail
	}
	return fmt.Sprintf("%10s %-4s %-14s %s -> %s len=%d%s%s",
		e.Time, e.Link, e.Kind, e.Src, e.Dst, e.Bytes, tun, detail)
}

// Describe decodes a transmission into an Event, walking through any
// encapsulation layers to classify the innermost message.
func Describe(ev netem.TxEvent) Event {
	out := Event{
		Time:  ev.Time,
		Link:  ev.Link.Name,
		Bytes: len(ev.Frame),
	}
	pkt := ev.Pkt
	if fh := pkt.Fragment(); fh != nil {
		out.Src, out.Dst = pkt.Hdr.Src, pkt.Hdr.Dst
		out.Kind = "fragment"
		out.Detail = fmt.Sprintf("id=%d off=%d more=%v", fh.ID, fh.Offset, fh.More)
		return out
	}
	out.TunnelDepth = ipv6.TunnelDepth(pkt)
	inner := ipv6.Innermost(pkt)
	out.Src, out.Dst = inner.Hdr.Src, inner.Hdr.Dst
	out.Kind, out.Detail = classify(inner)
	if out.TunnelDepth > 0 {
		out.Detail = fmt.Sprintf("outer %s->%s%s%s", pkt.Hdr.Src, pkt.Hdr.Dst,
			map[bool]string{true: " ", false: ""}[out.Detail != ""], out.Detail)
	}
	return out
}

func classify(pkt *ipv6.Packet) (kind, detail string) {
	// Mobile IPv6 destination options first: they ride on otherwise-empty
	// packets in this system.
	for _, o := range pkt.DestOpts() {
		switch o.Type {
		case ipv6.OptBindingUpdate:
			if bu, err := ipv6.ParseBindingUpdate(o); err == nil {
				d := fmt.Sprintf("seq=%d life=%ds", bu.Sequence, bu.Lifetime)
				if bu.GroupList != nil {
					d += fmt.Sprintf(" groups=%d", len(bu.GroupList))
				}
				return "bu", d
			}
		case ipv6.OptBindingAck:
			if ba, err := ipv6.ParseBindingAck(o); err == nil {
				return "back", fmt.Sprintf("status=%d seq=%d", ba.Status, ba.Sequence)
			}
		case ipv6.OptBindingReq:
			return "breq", ""
		}
	}
	switch pkt.Proto {
	case ipv6.ProtoUDP:
		if pkt.Hdr.Dst.IsMulticast() {
			return "data", ""
		}
		return "udp", ""
	case ipv6.ProtoICMPv6:
		msg, err := icmpv6.Parse(pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Payload)
		if err != nil {
			return "icmp6?", ""
		}
		switch m := msg.MLD; msg.Type {
		case icmpv6.TypeMLDQuery:
			if m.IsGeneralQuery() {
				return "mld-query", fmt.Sprintf("general maxdelay=%s", m.MaxResponseDelay)
			}
			return "mld-query", fmt.Sprintf("group=%s", m.MulticastAddress)
		case icmpv6.TypeMLDReport:
			return "mld-report", fmt.Sprintf("group=%s", m.MulticastAddress)
		case icmpv6.TypeMLDDone:
			return "mld-done", fmt.Sprintf("group=%s", m.MulticastAddress)
		case icmpv6.TypeRouterSolicit:
			return "ndp-rs", ""
		case icmpv6.TypeRouterAdvert:
			for _, o := range msg.RA.Options() {
				if o.Raw == nil {
					return "ndp-ra", fmt.Sprintf("prefix=%s/64", o.Prefix.Prefix)
				}
			}
			return "ndp-ra", ""
		}
		return "icmp6", ""
	case ipv6.ProtoPIM:
		msg, err := pimdm.Parse(pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Payload)
		if err != nil {
			return "pim?", ""
		}
		switch m := msg.(type) {
		case *pimdm.Hello:
			return "pim-hello", fmt.Sprintf("holdtime=%s", m.Holdtime)
		case *pimdm.Assert:
			return "pim-assert", fmt.Sprintf("src=%s grp=%s metric=%d/%d", m.Source, m.Group, m.MetricPreference, m.Metric)
		case *pimdm.StateRefresh:
			p := ""
			if m.PruneIndicator {
				p = " P"
			}
			return "pim-staterefresh", fmt.Sprintf("src=%s grp=%s ttl=%d%s", m.Source, m.Group, m.TTL, p)
		case *pimdm.Declaration:
			kind := map[uint8]string{
				pimdm.TypeInterest:   "hpim-interest",
				pimdm.TypeNoInterest: "hpim-nointerest",
				pimdm.TypeDeclAck:    "hpim-ack",
			}[m.Kind]
			return kind, fmt.Sprintf("to=%s seq=%d src=%s grp=%s", m.Target, m.Seq, m.Source, m.Group)
		case *pimdm.JoinPrune:
			kind := map[uint8]string{
				pimdm.TypeJoinPrune: "pim-joinprune",
				pimdm.TypeGraft:     "pim-graft",
				pimdm.TypeGraftAck:  "pim-graftack",
			}[m.Kind]
			nj, np := 0, 0
			for _, g := range m.Groups {
				nj += len(g.Joins)
				np += len(g.Prunes)
			}
			if m.Kind == pimdm.TypeJoinPrune {
				if np > 0 && nj == 0 {
					kind = "pim-prune"
				} else if nj > 0 && np == 0 {
					kind = "pim-join"
				}
			}
			return kind, fmt.Sprintf("to=%s joins=%d prunes=%d", m.UpstreamNeighbor, nj, np)
		}
		return "pim", ""
	case ipv6.ProtoNoNext:
		return "none", ""
	default:
		return fmt.Sprintf("proto%d", pkt.Proto), ""
	}
}

// Writer streams decoded events to an io.Writer, optionally filtered.
type Writer struct {
	W io.Writer
	// Filter keeps only events it returns true for (nil keeps all).
	Filter func(Event) bool
	// Count of written events.
	Count int
}

// Attach taps every link of the network.
func (w *Writer) Attach(net *netem.Network) {
	for _, l := range net.Links {
		w.AttachLink(l)
	}
}

// AttachLink taps one link.
func (w *Writer) AttachLink(l *netem.Link) {
	l.AddTap(func(ev netem.TxEvent) {
		e := Describe(ev)
		if w.Filter != nil && !w.Filter(e) {
			return
		}
		w.Count++
		fmt.Fprintln(w.W, e.String())
	})
}

// Collector accumulates events in memory for assertions.
type Collector struct {
	Events []Event
	Filter func(Event) bool
}

// Attach taps every link of the network.
func (c *Collector) Attach(net *netem.Network) {
	for _, l := range net.Links {
		l := l
		l.AddTap(func(ev netem.TxEvent) {
			e := Describe(ev)
			if c.Filter != nil && !c.Filter(e) {
				return
			}
			c.Events = append(c.Events, e)
		})
	}
}

// Kinds returns how many events of each kind were collected.
func (c *Collector) Kinds() map[string]int {
	out := map[string]int{}
	for _, e := range c.Events {
		out[e.Kind]++
	}
	return out
}
