// Package trace names link transmissions. Classify gives each its Kind,
// the simulator's one wire vocabulary, and Describe decodes it into a
// human-readable record: which MLD/PIM/Mobile-IPv6 message crossed which
// link when, through how many tunnel layers. The mip6trace CLI prints
// these records; tests use them to assert protocol sequences.
package trace

import (
	"fmt"
	"io"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/sim"
)

// Event is one decoded transmission.
type Event struct {
	Time        sim.Time
	Link        string
	Kind        string // a Kind's name, e.g. "data", "mld-report", "pim-prune", "bu"
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

// Describe decodes a transmission into an Event: Classify's kind and
// tunnel depth, the innermost packet's addresses, and the detail that
// parsing its message gives.
func Describe(ev netem.TxEvent) Event {
	pkt := ev.Pkt
	kind, depth := Classify(pkt)
	inner := pkt
	for range depth {
		inner = inner.Inner
	}
	out := Event{
		Time:        ev.Time,
		Link:        ev.Link.Name,
		Src:         inner.Hdr.Src,
		Dst:         inner.Hdr.Dst,
		Bytes:       len(ev.Frame),
		TunnelDepth: depth,
	}
	kind, out.Detail = detail(kind, inner)
	out.Kind = kind.String()
	if kind == KindProto {
		out.Kind = fmt.Sprintf("proto%d", inner.Proto)
	}
	if depth > 0 {
		outer := fmt.Sprintf("outer %s->%s", pkt.Hdr.Src, pkt.Hdr.Dst)
		if out.Detail != "" {
			outer += " " + out.Detail
		}
		out.Detail = outer
	}
	return out
}

// detail renders the message of pkt, a packet Classify called kind. It
// returns the kind refined by what only the parse can tell: a Join/Prune
// that only joins or only prunes, or an ICMPv6 or PIM message that does
// not parse.
func detail(kind Kind, pkt *ipv6.Packet) (Kind, string) {
	switch kind {
	case KindFragment:
		fh := pkt.Fragment()
		return kind, fmt.Sprintf("id=%d off=%d more=%v", fh.ID, fh.Offset, fh.More)
	case KindBU:
		o, _ := ipv6.FindOption(pkt.DestOpts(), ipv6.OptBindingUpdate)
		bu, err := ipv6.ParseBindingUpdate(o)
		if err != nil {
			return kind, ""
		}
		d := fmt.Sprintf("seq=%d life=%ds", bu.Sequence, bu.Lifetime)
		if bu.GroupList != nil {
			d += fmt.Sprintf(" groups=%d", len(bu.GroupList))
		}
		return kind, d
	case KindBAck:
		o, _ := ipv6.FindOption(pkt.DestOpts(), ipv6.OptBindingAck)
		ba, err := ipv6.ParseBindingAck(o)
		if err != nil {
			return kind, ""
		}
		return kind, fmt.Sprintf("status=%d seq=%d", ba.Status, ba.Sequence)
	case KindBReq:
		return kind, ""
	}
	switch pkt.Proto {
	case ipv6.ProtoICMPv6:
		msg, err := icmpv6.Parse(pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Payload)
		if err != nil {
			return KindICMP6Bad, ""
		}
		switch m := msg.MLD; kind {
		case KindMLDQuery:
			if m.IsGeneralQuery() {
				return kind, fmt.Sprintf("general maxdelay=%s", m.MaxResponseDelay)
			}
			return kind, fmt.Sprintf("group=%s", m.MulticastAddress)
		case KindMLDReport, KindMLDDone:
			return kind, fmt.Sprintf("group=%s", m.MulticastAddress)
		case KindNDPRA:
			for _, o := range msg.RA.Options() {
				if o.Raw == nil {
					return kind, fmt.Sprintf("prefix=%s/64", o.Prefix.Prefix)
				}
			}
		}
	case ipv6.ProtoPIM:
		msg, err := pimdm.Parse(pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Payload)
		if err != nil {
			return KindPIMBad, ""
		}
		switch msg.Type {
		case pimdm.TypeHello:
			return kind, fmt.Sprintf("holdtime=%s", msg.Hello.Holdtime)
		case pimdm.TypeAssert:
			m := msg.Assert
			return kind, fmt.Sprintf("src=%s grp=%s metric=%d/%d", m.Source, m.Group, m.MetricPreference, m.Metric)
		case pimdm.TypeStateRefresh:
			m := msg.StateRefresh
			p := ""
			if m.PruneIndicator {
				p = " P"
			}
			return kind, fmt.Sprintf("src=%s grp=%s ttl=%d%s", m.Source, m.Group, m.TTL, p)
		case pimdm.TypeInterest, pimdm.TypeNoInterest, pimdm.TypeDeclAck:
			m := msg.Decl
			return kind, fmt.Sprintf("to=%s seq=%d src=%s grp=%s", m.Target, m.Seq, m.Source, m.Group)
		case pimdm.TypeJoinPrune, pimdm.TypeGraft, pimdm.TypeGraftAck:
			m := msg.JoinPrune
			nj, np := 0, 0
			for _, g := range m.Groups {
				nj += len(g.Joins)
				np += len(g.Prunes)
			}
			if kind == KindPIMJoinPrune {
				if np > 0 && nj == 0 {
					kind = KindPIMPrune
				} else if nj > 0 && np == 0 {
					kind = KindPIMJoin
				}
			}
			return kind, fmt.Sprintf("to=%s joins=%d prunes=%d", m.UpstreamNeighbor, nj, np)
		}
	}
	return kind, ""
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
		tapLink(l, w.Filter, func(e Event) {
			w.Count++
			fmt.Fprintln(w.W, e.String())
		})
	}
}

// Collector accumulates events in memory for assertions.
type Collector struct {
	Events []Event
	Filter func(Event) bool
}

// Attach taps every link of the network.
func (c *Collector) Attach(net *netem.Network) {
	for _, l := range net.Links {
		tapLink(l, c.Filter, func(e Event) { c.Events = append(c.Events, e) })
	}
}

// tapLink describes every transmission on l and hands the events filter
// keeps (nil keeps all) to emit.
func tapLink(l *netem.Link, filter func(Event) bool, emit func(Event)) {
	l.AddTap(func(ev netem.TxEvent) {
		if e := Describe(ev); filter == nil || filter(e) {
			emit(e)
		}
	})
}

// Kinds returns how many events of each kind were collected.
func (c *Collector) Kinds() map[string]int {
	out := map[string]int{}
	for _, e := range c.Events {
		out[e.Kind]++
	}
	return out
}

// RecordLinks taps every link of the network and feeds decoded
// transmissions into rec as instant events: one track per link under the
// synthetic "net" node, named by the classified kind. filter (nil = keep
// all) prunes the stream before recording. Together with the engines' own
// state-machine hooks this renders wire activity alongside protocol state
// in the exported timelines.
//
// The adapter lives here rather than in obs because classification needs
// the protocol codecs (obs stays import-light so every engine can depend
// on it).
func RecordLinks(rec *obs.Recorder, net *netem.Network, filter func(Event) bool) {
	if rec == nil {
		return
	}
	for _, l := range net.Links {
		// Each link's tap records through the recorder of the link's own
		// region (For is the identity on one-region runs). Both halves of a
		// split cross-region link are in net.Links, each tapped into its
		// own side's recorder.
		lr := rec.For(l.Sched())
		tapLink(l, filter, func(e Event) {
			detail := fmt.Sprintf("%s->%s len=%d", e.Src, e.Dst, e.Bytes)
			if e.Detail != "" {
				detail += " " + e.Detail
			}
			lr.Instant("net", "link "+e.Link, e.Kind, detail)
		})
	}
}
