package netem

import (
	"math/rand"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// Impairment is the per-link fault-injection model. Attach one with
// Link.Impair to subject every delivery on the link to delay jitter,
// reordering, duplication, bursty (Gilbert–Elliott) loss and bit
// corruption. All randomness is drawn from the simulation's seeded source,
// so a run with impairments is exactly as reproducible as one without; a
// nil Impair costs the data path nothing (no draws, no allocations).
//
// The independent per-receiver Link.LossRate composes with the burst model:
// both loss processes are drawn separately for each delivery.
type Impairment struct {
	// Jitter adds a uniform extra delay in [0, Jitter) to each delivery,
	// drawn independently per receiver. Zero disables.
	Jitter time.Duration

	// ReorderProb is the probability that a delivery is held back by
	// ReorderDelay, letting frames sent later overtake it. ReorderDelay
	// defaults to 4×link delay + 1ms when zero (enough to guarantee
	// overtaking on an active link).
	ReorderProb  float64
	ReorderDelay time.Duration

	// DupProb is the probability that a delivery is duplicated: the
	// receiver gets the frame twice. The duplicate counts as an extra
	// attempted (and delivered) delivery.
	DupProb float64

	// CorruptProb is the probability that the delivered bytes are damaged
	// in flight. Corruption is surfaced as a decode failure at the
	// receiver — the frame arrives, fails to parse, and is dropped as
	// "malformed" — modeling a frame whose damage survives the link layer
	// but is caught by upper-layer validation.
	CorruptProb float64

	// Gilbert–Elliott burst loss: a two-state channel that flips between a
	// good state (loss probability GoodLoss) and a bad state (BadLoss) with
	// per-transmission transition probabilities PGB (good→bad) and PBG
	// (bad→good). The state advances once per transmission; the loss draw
	// is then made independently per receiver. All zero disables the model.
	PGB      float64
	PBG      float64
	GoodLoss float64
	BadLoss  float64
}

// stepBurst advances the Gilbert–Elliott channel state and returns the loss
// probability the current transmission experiences. Called once per
// transmission (not per receiver) so a burst affects the whole domain.
func (imp *Impairment) stepBurst(l *Link, r *rand.Rand) float64 {
	if imp.PGB <= 0 && imp.PBG <= 0 && imp.GoodLoss <= 0 && imp.BadLoss <= 0 {
		return 0
	}
	if l.geBad {
		if imp.PBG > 0 && r.Float64() < imp.PBG {
			l.geBad = false
		}
	} else {
		if imp.PGB > 0 && r.Float64() < imp.PGB {
			l.geBad = true
		}
	}
	if l.geBad {
		return imp.BadLoss
	}
	return imp.GoodLoss
}

// reorderDelay returns the hold-back applied to reordered deliveries.
func (imp *Impairment) reorderDelay(l *Link) time.Duration {
	if imp.ReorderDelay > 0 {
		return imp.ReorderDelay
	}
	return 4*l.Delay + time.Millisecond
}

// impairedDeliver schedules one (possibly jittered, reordered, corrupted
// and/or duplicated) delivery. The caller has already charged Delivered for
// the primary copy; duplicates are charged here. Loss was already decided.
func (l *Link) impairedDeliver(ifc *Interface, home *Link, arrive sim.Time, frameLen uint64, pkt *ipv6.Packet, hops uint8, frame []byte, raw *rawFrame, unicast bool) {
	s := l.scheduler()
	imp := l.Impair

	at := arrive
	if imp.Jitter > 0 {
		at = at.Add(s.Jitter("netem-impair", imp.Jitter))
	}
	if imp.ReorderProb > 0 && s.RandFor("netem-impair").Float64() < imp.ReorderProb {
		l.ReorderedDeliveries++
		at = at.Add(imp.reorderDelay(l))
	}

	if imp.CorruptProb > 0 && s.RandFor("netem-impair").Float64() < imp.CorruptProb {
		l.CorruptedDeliveries++
		data := make([]byte, len(frame))
		copy(data, frame)
		if len(data) > 0 {
			// Damage the IPv6 version nibble so the receiver's decode
			// reliably fails (the "malformed" drop path).
			data[0] ^= 0xf0
		}
		l.deliverRaw(ifc, home, at, &rawFrame{data: data}, unicast)
	} else if raw == nil {
		l.deliverPkt(ifc, home, at, pkt, hops, unicast)
	} else {
		// Sender handed us an undecodable frame: transmit already keeps
		// the buffer alive (recyclable=false), so sharing it is safe.
		l.deliverRaw(ifc, home, at, raw, unicast)
	}

	if imp.DupProb > 0 && s.RandFor("netem-impair").Float64() < imp.DupProb {
		l.AttemptedDeliveries++
		l.DupDeliveries++
		l.Delivered++
		l.DeliveredBytes += frameLen
		if raw == nil {
			l.deliverPkt(ifc, home, at, pkt, hops, unicast)
		} else {
			l.deliverRaw(ifc, home, at, raw, unicast)
		}
	}
}
