package trace

import (
	"fmt"

	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
)

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
		l.AddTap(func(ev netem.TxEvent) {
			e := Describe(ev)
			if filter != nil && !filter(e) {
				return
			}
			detail := fmt.Sprintf("%s->%s len=%d", e.Src, e.Dst, e.Bytes)
			if e.Detail != "" {
				detail += " " + e.Detail
			}
			lr.Instant("net", "link "+e.Link, e.Kind, detail)
		})
	}
}
