// Package mld implements Multicast Listener Discovery version 1 (RFC 2710):
// the router side (querier election, General and Address-Specific Queries,
// the listener database with its Multicast Listener Interval) and the host
// side (delayed Reports with suppression, unsolicited Reports on joining,
// Done messages on leaving).
//
// The paper's Section 4.4 is entirely about this protocol's timers: the
// Query Interval T_Query (default 125 s) and Maximum Response Delay
// T_RespDel (default 10 s) yield a Multicast Listener Interval
// T_MLI = Robustness·T_Query + T_RespDel = 260 s, which bounds both the
// join delay of a mobile receiver that waits for a Query and the leave
// delay during which a router keeps forwarding onto a link all members have
// left. Every timer here is a configuration knob so the paper's proposed
// optimization (decreasing T_Query) is a parameter sweep.
package mld

import (
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// Config holds the protocol timers (RFC 2710 §7).
type Config struct {
	// QueryInterval is T_Query between General Queries (§7.2, default 125s).
	QueryInterval time.Duration
	// MaxResponseDelay is T_RespDel inserted into General Queries (§7.3,
	// default 10s). Must not exceed QueryInterval.
	MaxResponseDelay time.Duration
	// Robustness allows for expected packet loss (§7.1, default 2).
	Robustness int
	// LastListenerQueryInterval is the Max Response Delay of
	// Address-Specific Queries sent in response to a Done (§7.8, default 1s).
	LastListenerQueryInterval time.Duration
	// StartupQueryInterval separates a querier's first queries (§7.6,
	// default QueryInterval/4).
	StartupQueryInterval time.Duration
	// UnsolicitedReportInterval separates a host's initial Reports for a
	// newly joined group (§7.10, default 10s).
	UnsolicitedReportInterval time.Duration
	// RequireRouterAlert makes the router ignore MLD messages lacking the
	// IPv6 Router Alert hop-by-hop option (RFC 2710 §3 requires senders to
	// include it; checking rejects forged or mis-built messages).
	RequireRouterAlert bool
}

// DefaultConfig returns the RFC 2710 defaults — the values the paper
// criticizes as "far too high" for mobile receivers.
func DefaultConfig() Config {
	return Config{
		QueryInterval:             125 * time.Second,
		MaxResponseDelay:          10 * time.Second,
		Robustness:                2,
		LastListenerQueryInterval: 1 * time.Second,
		StartupQueryInterval:      125 * time.Second / 4,
		UnsolicitedReportInterval: 10 * time.Second,
	}
}

// FastConfig returns the paper-recommended tuning for mobile networks: a
// small Query Interval (bounded below by MaxResponseDelay, per the paper's
// footnote 5).
func FastConfig(queryInterval time.Duration) Config {
	c := DefaultConfig()
	if queryInterval < c.MaxResponseDelay {
		c.MaxResponseDelay = queryInterval
	}
	c.QueryInterval = queryInterval
	c.StartupQueryInterval = queryInterval / 4
	if c.StartupQueryInterval <= 0 {
		c.StartupQueryInterval = queryInterval
	}
	return c
}

// ListenerInterval is T_MLI = Robustness·T_Query + T_RespDel (§7.4): how
// long a router remembers a listener without fresh Reports.
func (c Config) ListenerInterval() time.Duration {
	return time.Duration(c.Robustness)*c.QueryInterval + c.MaxResponseDelay
}

// OtherQuerierPresentInterval is how long a non-querier waits before taking
// over (§7.5): Robustness·T_Query + T_RespDel/2.
func (c Config) OtherQuerierPresentInterval() time.Duration {
	return time.Duration(c.Robustness)*c.QueryInterval + c.MaxResponseDelay/2
}

// LastListenerQueryTime bounds how long after a Done the router keeps state
// with no Reports arriving.
func (c Config) LastListenerQueryTime() time.Duration {
	return time.Duration(c.Robustness) * c.LastListenerQueryInterval
}

// Packet builds an MLD message m from src to dst in the packet shape of
// RFC 2710 §3: hop limit 1 and the Router Alert hop-by-hop option. On a
// link src is the sender's link-local address; through a Mobile IPv6
// tunnel it is the mobile node's home address or the home agent's address.
func Packet(src, dst ipv6.Addr, m *icmpv6.MLD) *ipv6.Packet {
	return &ipv6.Packet{
		Hdr:      ipv6.Header{Src: src, Dst: dst, HopLimit: 1},
		HopByHop: []ipv6.Option{ipv6.RouterAlertOption(ipv6.RouterAlertMLD)},
		Proto:    ipv6.ProtoICMPv6,
		Payload:  icmpv6.Marshal(src, dst, m),
	}
}

// ArmReport arms t, a listener's Report timer for one group, on a Query
// whose Maximum Response Delay is maxDelay (RFC 2710 §4 ¶10): the delay is
// drawn from the scheduler's "mld" stream in [0, maxDelay), and a pending
// timer is only ever shortened.
func ArmReport(s *sim.Scheduler, t *sim.Timer, maxDelay time.Duration) {
	if maxDelay <= 0 {
		maxDelay = time.Millisecond
	}
	d := s.Jitter("mld", maxDelay)
	if t.Running() && t.Remaining() <= d {
		return
	}
	t.Reset(d)
}
