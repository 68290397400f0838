package mld

import (
	"fmt"
	"slices"
	"strings"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// Listeners is the listener database of one link (RFC 2710 §5): the groups
// with listeners, each kept for the Multicast Listener Interval after its
// last Report, and the last-listener query round a Done starts. It sends
// nothing itself. Its owner sends the Address-Specific Queries of the round
// and hears of each group's first listener and of the loss of its last.
// Router runs one per interface; a home agent runs one per binding, the
// tunnel to the mobile node being the link (the paper's first §4.3.2
// variant).
type Listeners struct {
	s      *sim.Scheduler
	cfg    Config
	query  func(group ipv6.Addr)
	change func(group ipv6.Addr, present bool)
	groups map[ipv6.Addr]*listenerRecord
}

type listenerRecord struct {
	expiry *sim.Timer
	// Address-specific (last-listener) query retransmission state.
	specificQueriesLeft int
	retransmit          *sim.Timer
}

// NewListeners returns an empty listener database on s. query sends an
// Address-Specific Query for group; change reports that group gained its
// first listener (present) or lost its last one.
func NewListeners(s *sim.Scheduler, cfg Config, query func(group ipv6.Addr), change func(group ipv6.Addr, present bool)) *Listeners {
	return &Listeners{s: s, cfg: cfg, query: query, change: change, groups: map[ipv6.Addr]*listenerRecord{}}
}

// Report records a Report for group: a new listener, or a refresh of the
// Multicast Listener Interval that also ends any last-listener round.
func (l *Listeners) Report(group ipv6.Addr) {
	rec, ok := l.groups[group]
	if !ok {
		rec = &listenerRecord{}
		rec.expiry = sim.NewTimer(l.s, func() { l.expire(group) })
		rec.retransmit = sim.NewTimer(l.s, func() { l.lastListenerRound(group) })
		l.groups[group] = rec
		l.change(group, true)
	}
	rec.specificQueriesLeft = 0
	rec.retransmit.Stop()
	rec.expiry.Reset(l.cfg.ListenerInterval())
}

// Done starts the last-listener procedure for group (§5 bullet 4): the
// listener expires after the Last Listener Query Time unless a Report
// answers one of the Robustness Address-Specific Queries sent one Last
// Listener Query Interval apart. Only the link's querier calls it.
func (l *Listeners) Done(group ipv6.Addr) {
	rec, ok := l.groups[group]
	if !ok {
		return
	}
	rec.specificQueriesLeft = l.cfg.Robustness
	rec.expiry.Reset(l.cfg.LastListenerQueryTime())
	l.lastListenerRound(group)
}

// SpecificQueryHeard lowers group's timer to the Last Listener Query Time
// (§5 bullet 2). A non-querier calls it on hearing an Address-Specific
// Query for group.
func (l *Listeners) SpecificQueryHeard(group ipv6.Addr) {
	if rec, ok := l.groups[group]; ok {
		if llqt := l.cfg.LastListenerQueryTime(); rec.expiry.Remaining() > llqt {
			rec.expiry.Reset(llqt)
		}
	}
}

func (l *Listeners) lastListenerRound(group ipv6.Addr) {
	rec, ok := l.groups[group]
	if !ok || rec.specificQueriesLeft == 0 {
		return
	}
	rec.specificQueriesLeft--
	l.query(group)
	if rec.specificQueriesLeft > 0 {
		rec.retransmit.Reset(l.cfg.LastListenerQueryInterval)
	}
}

func (l *Listeners) expire(group ipv6.Addr) {
	if rec, ok := l.groups[group]; ok {
		rec.expiry.Stop()
		rec.retransmit.Stop()
		delete(l.groups, group)
		l.change(group, false)
	}
}

// Has reports whether group has listeners.
func (l *Listeners) Has(group ipv6.Addr) bool {
	_, ok := l.groups[group]
	return ok
}

// Len returns the number of groups with listeners.
func (l *Listeners) Len() int { return len(l.groups) }

// Groups returns the groups with listeners, sorted.
func (l *Listeners) Groups() []ipv6.Addr {
	out := make([]ipv6.Addr, 0, len(l.groups))
	for g := range l.groups {
		out = append(out, g)
	}
	slices.SortFunc(out, ipv6.Addr.Compare)
	return out
}

// snapshot lists the groups with listeners for Router.Snapshot, comma
// separated in string order, each with its in-flight last-listener query
// count.
func (l *Listeners) snapshot() string {
	groups := make([]string, 0, len(l.groups))
	for group, rec := range l.groups {
		g := group.String()
		if rec.specificQueriesLeft > 0 {
			g += fmt.Sprintf("(q=%d)", rec.specificQueriesLeft)
		}
		groups = append(groups, g)
	}
	slices.Sort(groups)
	return strings.Join(groups, ",")
}

// Stop stops every timer and forgets every listener without reporting the
// losses (the owner is going away).
func (l *Listeners) Stop() {
	for _, rec := range l.groups {
		rec.expiry.Stop()
		rec.retransmit.Stop()
	}
	clear(l.groups)
}
