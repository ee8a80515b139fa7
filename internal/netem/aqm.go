package netem

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// AQM is an active-queue-management policy on a Link: it may drop a
// packet that the hard queue cap would have admitted, signalling
// congestion before the buffer fills. Admit is evaluated at enqueue
// time — the link is a work-conserving FIFO, so the packet's full
// queueing delay (wait plus serialization) is known analytically the
// moment it arrives, which lets sojourn-based policies like CoDel run
// without per-packet dequeue events and keeps the simulation's
// zero-events-per-packet property intact.
//
// Implementations must be deterministic: any randomness draws from
// the passed rng (the scheduler's seeded stream) and any time from
// the passed virtual-clock instant. One AQM instance serves exactly
// one link — the policies are stateful.
type AQM interface {
	// Admit decides the fate of a packet entering the queue. queued is
	// the backlog in bytes excluding this packet, size its wire size,
	// and sojourn the exact time it would spend queued+serializing.
	// Returning false drops the packet (counted in Dropped and
	// AqmDrops).
	Admit(now time.Duration, queued, size int, sojourn time.Duration, rng *rand.Rand) bool
	// Name returns the policy name ("red", "codel").
	Name() string
}

// AQM policy kinds for AqmConfig.Kind.
const (
	AqmDropTail = "droptail"
	AqmRED      = "red"
	AqmCoDel    = "codel"
)

// AqmKinds lists the policy names in presentation order.
func AqmKinds() []string { return []string{AqmDropTail, AqmRED, AqmCoDel} }

// AqmConfig selects a queue policy declaratively, so profiles, tree
// tiers and timeline steps can carry it as plain comparable data. The
// zero value is drop-tail (no AQM).
type AqmConfig struct {
	// Kind is "", "droptail", "red" or "codel".
	Kind string
}

// Enabled reports whether the config selects an actual AQM policy
// (anything beyond drop-tail).
func (a AqmConfig) Enabled() bool { return a.Kind != "" && a.Kind != AqmDropTail }

// Validate rejects unknown kinds.
func (a AqmConfig) Validate() error {
	switch a.Kind {
	case "", AqmDropTail, AqmRED, AqmCoDel:
		return nil
	}
	return fmt.Errorf("aqm: unknown kind %q (droptail|red|codel)", a.Kind)
}

// New builds a fresh policy instance for a link with the given queue
// capacity (bytes; 0 = uncapped), or nil for drop-tail. Each link
// needs its own instance. RED takes the classic Floyd/Jacobson
// parameters scaled to the queue: MinTh = cap/4 (64 KiB on an
// uncapped link), MaxTh = 3·MinTh, MaxP = 0.1 and an EWMA weight of
// 0.002. CoDel takes RFC 8289's Target 5 ms and Interval 100 ms.
func (a AqmConfig) New(queueCap int) AQM {
	switch a.Kind {
	case "", AqmDropTail:
		return nil
	case AqmRED:
		minTh := 64 << 10
		if queueCap > 0 {
			minTh = queueCap / 4
		}
		return &RED{MinTh: minTh, MaxTh: 3 * minTh, MaxP: 0.1, Weight: 0.002}
	case AqmCoDel:
		return &CoDel{Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond}
	default:
		panic("netem: unknown aqm kind " + a.Kind)
	}
}

// ParseAqm parses a policy name ("droptail", "red", "codel", or ""
// for drop-tail) into a config.
func ParseAqm(s string) (AqmConfig, error) {
	a := AqmConfig{Kind: s}
	if err := a.Validate(); err != nil {
		return AqmConfig{}, err
	}
	return a, nil
}

// RED is Random Early Detection (Floyd & Jacobson 1993): an EWMA of
// the queue backlog maps linearly from probability 0 at MinTh to MaxP
// at MaxTh, above which every packet drops. The count-based
// correction spreads drops uniformly instead of clustering them. The
// drop lottery draws from the scheduler's seeded rng, so runs stay
// bit-identical for a seed.
type RED struct {
	MinTh, MaxTh int     // EWMA thresholds, bytes
	MaxP         float64 // drop probability at MaxTh
	Weight       float64 // EWMA weight per arrival

	avg    float64 // averaged backlog, bytes
	count  int     // packets since the last drop (-1 below MinTh)
	inited bool
}

// Admit implements AQM.
func (r *RED) Admit(_ time.Duration, queued, _ int, _ time.Duration, rng *rand.Rand) bool {
	if !r.inited {
		r.avg = float64(queued)
		r.inited = true
	} else {
		r.avg += r.Weight * (float64(queued) - r.avg)
	}
	switch {
	case r.avg < float64(r.MinTh):
		r.count = -1
		return true
	case r.avg >= float64(r.MaxTh):
		r.count = 0
		return false
	}
	r.count++
	pb := r.MarkProb(r.avg)
	// Uniformize inter-drop gaps (the gentle count correction).
	pa := pb
	if d := 1 - float64(r.count)*pb; d > 0 {
		pa = pb / d
	} else {
		pa = 1
	}
	if rng.Float64() < pa {
		r.count = 0
		return false
	}
	return true
}

// MarkProb returns the base drop probability the linear RED curve
// assigns to an averaged backlog of avg bytes (before the count
// correction). Exposed for the hand-computed curve tests.
func (r *RED) MarkProb(avg float64) float64 {
	switch {
	case avg < float64(r.MinTh):
		return 0
	case avg >= float64(r.MaxTh):
		return 1
	}
	return r.MaxP * (avg - float64(r.MinTh)) / float64(r.MaxTh-r.MinTh)
}

// Avg exposes the current EWMA backlog estimate (tests).
func (r *RED) Avg() float64 { return r.avg }

// Name implements AQM.
func (r *RED) Name() string { return AqmRED }

// CoDel is the Controlled Delay policy (RFC 8289) evaluated at
// enqueue: when a packet's known sojourn time has stayed above Target
// for a full Interval, CoDel enters the dropping state and drops on a
// schedule that tightens with the inverse square root of the drop
// count until the sojourn falls back under Target. No randomness —
// the schedule is fully determined by the virtual clock.
type CoDel struct {
	Target   time.Duration // acceptable standing sojourn
	Interval time.Duration // how long sojourn may exceed Target

	above      bool          // sojourn has been above Target…
	aboveSince time.Duration // …continuously since this instant
	dropping   bool
	dropNext   time.Duration // next scheduled drop while dropping
	count      int           // drops in the current dropping episode
	// Drops counts packets this policy dropped (tests).
	Drops int
}

// Admit implements AQM.
func (c *CoDel) Admit(now time.Duration, _, _ int, sojourn time.Duration, _ *rand.Rand) bool {
	if sojourn < c.Target {
		c.above = false
		c.dropping = false
		return true
	}
	if !c.above {
		c.above = true
		c.aboveSince = now
	}
	if !c.dropping {
		if now-c.aboveSince < c.Interval {
			return true
		}
		// Sojourn exceeded Target for a full Interval: start dropping.
		c.dropping = true
		// Restart the schedule where the last episode left off if it
		// ended recently (standing queues rebuild fast), else afresh.
		if c.count > 2 && now-c.dropNext < 8*c.Interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.Drops++
		c.dropNext = now + c.controlLaw()
		return false
	}
	if now >= c.dropNext {
		c.count++
		c.Drops++
		c.dropNext += c.controlLaw()
		return false
	}
	return true
}

// controlLaw returns the inter-drop interval Interval/sqrt(count).
func (c *CoDel) controlLaw() time.Duration {
	return time.Duration(float64(c.Interval) / math.Sqrt(float64(c.count)))
}

// Name implements AQM.
func (c *CoDel) Name() string { return AqmCoDel }
