// Package scenario assembles the paper's reference network (its Figure 1)
// with the full protocol stack on every node — unicast routing, PIM-DM,
// MLD, NDP router discovery, Mobile IPv6 home agents with their multicast
// services, and mobile nodes — plus workload generation and measurement
// probes. The experiment harness and the benchmarks build every run on top
// of it.
package scenario

import (
	"encoding/binary"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// WorkloadPort is the UDP port multicast application traffic uses.
const WorkloadPort = 9000

// beaconMagic identifies workload payloads on the wire.
var beaconMagic = [4]byte{'M', 'C', '6', 'M'}

// Beacon is the measurable content of every workload datagram.
type Beacon struct {
	Flow   uint16
	Seq    uint64
	SentAt sim.Time
}

// beaconLen is the encoded size before padding.
const beaconLen = 4 + 2 + 8 + 8

// Marshal encodes the beacon padded to size bytes (minimum beaconLen).
func (b Beacon) Marshal(size int) []byte {
	if size < beaconLen {
		size = beaconLen
	}
	out := make([]byte, size)
	copy(out[0:4], beaconMagic[:])
	binary.BigEndian.PutUint16(out[4:6], b.Flow)
	binary.BigEndian.PutUint64(out[6:14], b.Seq)
	binary.BigEndian.PutUint64(out[14:22], uint64(b.SentAt))
	return out
}

// ParseBeacon decodes a workload payload.
func ParseBeacon(p []byte) (Beacon, bool) {
	if len(p) < beaconLen || [4]byte(p[0:4]) != beaconMagic {
		return Beacon{}, false
	}
	return Beacon{
		Flow:   binary.BigEndian.Uint16(p[4:6]),
		Seq:    binary.BigEndian.Uint64(p[6:14]),
		SentAt: sim.Time(binary.BigEndian.Uint64(p[14:22])),
	}, true
}

// CBR is a constant-bit-rate workload source. It does not know how to put
// packets on the wire — the Send function (a local multicast send, or a
// reverse-tunneled send, depending on the approach under test) is injected.
type CBR struct {
	Flow     uint16
	Interval time.Duration
	Size     int // payload bytes per datagram
	Send     func(payload []byte)

	Sent   uint64
	ticker *sim.Ticker
	sched  *sim.Scheduler
}

// NewCBR starts a CBR source immediately (first datagram after one
// interval).
func NewCBR(s *sim.Scheduler, flow uint16, interval time.Duration, size int, send func(payload []byte)) *CBR {
	c := &CBR{Flow: flow, Interval: interval, Size: size, Send: send, sched: s}
	c.ticker = sim.NewTicker(s, interval, 0, c.emit)
	return c
}

func (c *CBR) emit() {
	c.Sent++
	b := Beacon{Flow: c.Flow, Seq: c.Sent, SentAt: c.sched.Now()}
	c.Send(b.Marshal(c.Size))
}

// Stop silences the source.
func (c *CBR) Stop() { c.ticker.Stop() }

// BitRate returns the source's nominal IP-layer bit rate.
func (c *CBR) BitRate() float64 {
	frame := ipv6.HeaderLen + ipv6.UDPHeaderLen + c.Size
	return float64(frame*8) / c.Interval.Seconds()
}

// AttachProbe wires a metrics.FlowProbe to a host: every workload datagram
// delivered to the host (directly or via tunnel) is recorded with its
// end-to-end router hop count. outerHops supplies the extra hops of the
// current tunnel leg (0 for direct delivery); pass nil when the host never
// receives tunneled traffic.
func AttachProbe(node *netem.Node, s *sim.Scheduler, flow uint16, probe *metrics.FlowProbe, outerHops func() int) {
	node.BindUDP(WorkloadPort, func(rx netem.RxPacket, u ipv6.UDP) {
		b, ok := ParseBeacon(u.Payload)
		if !ok || b.Flow != flow {
			return
		}
		hops := int(ipv6.DefaultHopLimit - rx.HopLimit())
		if rx.ViaTunnel && outerHops != nil {
			hops += outerHops()
		}
		probe.Record(b.Seq, s.Now(), hops)
	})
}
