package mld

import (
	"fmt"
	"sort"
)

// Snapshot returns the router's deterministic membership-state digest
// for timeline checkpoints: one line per interface (sorted by link
// name) carrying the querier flag, remaining startup queries, and the
// listener records with any in-flight address-specific query
// retransmission counts. Timer expiries live in the scheduler's
// pending-event queue and are captured separately.
func (r *Router) Snapshot() []string {
	out := make([]string, 0, len(r.state))
	for ifc, st := range r.state {
		name := "?"
		if ifc.Link != nil {
			name = ifc.Link.Name
		}
		out = append(out, fmt.Sprintf("%s querier=%t startup=%d groups=%s",
			name, st.querier, st.startupLeft, st.listeners.snapshot()))
	}
	sort.Strings(out)
	return out
}
