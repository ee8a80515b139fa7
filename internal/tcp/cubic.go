package tcp

import (
	"math"
	"time"
)

// CUBIC constants (RFC 8312): C scales the cubic growth curve,
// beta is the multiplicative-decrease factor.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// cubic implements RFC 8312 CUBIC congestion control on the virtual
// clock. Window growth in congestion avoidance follows the cubic
// W(t) = C·(t−K)³ + W_max curve anchored at the last loss epoch —
// concave while approaching W_max, convex while probing beyond it —
// with the TCP-friendly region as a lower bound so short-RTT paths
// never grow slower than Reno. Loss handling keeps the Conn's NewReno
// recovery mechanics (fast retransmit, partial-ack refill); only the
// window arithmetic differs.
//
// Everything is derived from AckEvent fields and IEEE-754 arithmetic,
// so runs are bit-identical for a given event sequence (no wall
// clock, no randomness).
type cubic struct {
	cwnd     int
	ssthresh int

	// Epoch state for the cubic curve. epochStart < 0 means no epoch
	// is open; the next congestion-avoidance ack opens one.
	epochStart time.Duration
	wMax       float64 // window (segments) at the last loss event
	k          float64 // time to regain wMax on the curve, seconds
	origin     float64 // curve origin (segments)
	westBase   float64 // TCP-friendly estimate base (segments at epoch)
	frac       float64 // fractional cwnd bytes not yet materialized

	dupAcks    int
	inRecovery bool
	recoverPt  int64
}

// Init implements CongestionControl.
func (cu *cubic) Init(time.Duration) {
	cu.cwnd = initCwnd
	cu.ssthresh = 1 << 30
	cu.epochStart = -1
	cu.wMax = 0
	cu.frac = 0
	cu.dupAcks = 0
	cu.inRecovery = false
	cu.recoverPt = 0
}

// Cwnd implements CongestionControl.
func (cu *cubic) Cwnd() int { return cu.cwnd }

// InRecovery implements CongestionControl.
func (cu *cubic) InRecovery() bool { return cu.inRecovery }

// Name implements CongestionControl.
func (cu *cubic) Name() string { return CCCubic }

// OnAck implements CongestionControl.
func (cu *cubic) OnAck(ev AckEvent) CcAction {
	if cu.inRecovery {
		if ev.AckOff >= cu.recoverPt {
			cu.inRecovery = false
			cu.cwnd = cu.ssthresh
			cu.dupAcks = 0
			cu.epochStart = -1
			return CcNone
		}
		cu.cwnd = max(cu.cwnd-ev.Acked+mss, mss)
		return CcRetransmit
	}
	cu.dupAcks = 0
	if cu.cwnd < cu.ssthresh {
		cu.cwnd += min(ev.Acked, mss) // slow start
		return CcNone
	}
	cu.avoid(ev)
	return CcNone
}

// avoid grows cwnd along the cubic curve (congestion avoidance).
func (cu *cubic) avoid(ev AckEvent) {
	cwndSeg := float64(cu.cwnd) / float64(mss)
	if cu.epochStart < 0 {
		cu.epochStart = ev.Now
		if cwndSeg < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cwndSeg) / cubicC)
			cu.origin = cu.wMax
		} else {
			cu.k = 0
			cu.origin = cwndSeg
		}
		cu.westBase = cwndSeg
		cu.frac = 0
	}
	// RFC 8312 §4.1: the curve is evaluated one RTT ahead, so the
	// window reaches the target a round later.
	t := (ev.Now - cu.epochStart + ev.SRTT).Seconds()
	d := t - cu.k
	target := cu.origin + cubicC*d*d*d
	// TCP-friendly region (§4.2): never slower than a Reno flow that
	// saw the same epoch.
	if ev.SRTT > 0 {
		west := cu.westBase + 3*(1-cubicBeta)/(1+cubicBeta)*(t/ev.SRTT.Seconds())
		if target < west {
			target = west
		}
	}
	if target <= cwndSeg {
		return // max-probing plateau: hold
	}
	// Per RFC: cwnd grows (target−cwnd)/cwnd per arriving ACK; with
	// byte-counted acks that is (target−cwnd)/cwnd · acked bytes.
	// Materialize whole bytes, capped at one MSS per ack so a stale
	// epoch can never step the window discontinuously.
	cu.frac += (target - cwndSeg) / cwndSeg * float64(ev.Acked)
	if cu.frac >= 1 {
		inc := int(cu.frac)
		if inc > mss {
			inc = mss
		}
		cu.cwnd += inc
		cu.frac -= float64(inc)
		if cu.frac > float64(mss) {
			cu.frac = float64(mss) // bound carried debt
		}
	}
}

// OnDupAck implements CongestionControl.
func (cu *cubic) OnDupAck(ev AckEvent) CcAction {
	cu.dupAcks++
	if cu.inRecovery {
		cu.cwnd += mss // inflation keeps the ack clock running
		return CcNone
	}
	if cu.dupAcks == 3 {
		cu.onLoss()
		cu.inRecovery = true
		cu.recoverPt = ev.SndNxt
		cu.cwnd = cu.ssthresh + 3*mss
		return CcRetransmit
	}
	return CcNone
}

// onLoss applies the CUBIC multiplicative decrease and re-anchors the
// curve, with fast convergence (§4.6) when the loss arrived before
// the window regained the previous wMax.
func (cu *cubic) onLoss() {
	cwndSeg := float64(cu.cwnd) / float64(mss)
	cu.epochStart = -1
	if cwndSeg < cu.wMax {
		cu.wMax = cwndSeg * (2 - cubicBeta) / 2
	} else {
		cu.wMax = cwndSeg
	}
	cu.ssthresh = max(int(float64(cu.cwnd)*cubicBeta), 2*mss)
}

// OnRTO implements CongestionControl.
func (cu *cubic) OnRTO(AckEvent) {
	cu.onLoss()
	cu.cwnd = mss
	cu.frac = 0
	cu.dupAcks = 0
	cu.inRecovery = false
}

// OnIdle implements CongestionControl.
func (cu *cubic) OnIdle(time.Duration) {
	cu.cwnd = min(cu.cwnd, initCwnd)
	cu.epochStart = -1
	cu.frac = 0
}
