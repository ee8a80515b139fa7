package tcp

import "time"

// CongestionControl is the pluggable congestion-control policy of a
// Conn. The Conn owns reliability (retransmission, RTO timers, the
// NewReno partial-ack hole refill and the go-back-N rollback); the
// controller owns only the congestion window and the state machine
// that sizes it. All hooks run on the scheduler goroutine.
//
// Hooks fire after the Conn has updated its transport state (sndUna,
// RTT sample, counters) but before any retransmission the hook's
// return value requests, so a controller sees the post-ack world and
// its window decision takes effect for the segments that follow.
type CongestionControl interface {
	// Init resets the controller for a fresh connection; now is the
	// virtual-clock time of creation.
	Init(now time.Duration)
	// Cwnd returns the current congestion window in bytes. The Conn
	// clamps its send window to min(Cwnd, peer-advertised window).
	Cwnd() int
	// InRecovery reports whether the controller is in loss recovery.
	InRecovery() bool
	// OnAck fires for every ACK that advances sndUna. Returning
	// CcRetransmit makes the Conn resend the segment at sndUna (the
	// NewReno partial-ack refill).
	OnAck(ev AckEvent) CcAction
	// OnDupAck fires for every duplicate ACK (data outstanding, no
	// payload, unchanged window). Returning CcRetransmit triggers a
	// fast retransmit of the segment at sndUna.
	OnDupAck(ev AckEvent) CcAction
	// OnRTO fires when the retransmission timer expires, before the
	// go-back-N rollback. ev.Flight is the pre-rollback flight size.
	OnRTO(ev AckEvent)
	// OnIdle fires when the RFC 5681 idle-restart condition holds
	// (connection idle longer than one RTO with IdleReset enabled).
	OnIdle(now time.Duration)
	// Name returns the registry name ("reno", "cubic", "bbr").
	Name() string
}

// AckEvent carries the transport state a congestion controller may
// consult when a hook fires. Offsets are stream offsets (int64 bytes
// from 0), not wire sequence numbers.
type AckEvent struct {
	Now    time.Duration // virtual-clock time
	Acked  int           // bytes newly acknowledged (0 for dup acks / RTO)
	AckOff int64         // cumulative ack offset
	SndNxt int64         // next offset to send
	Flight int           // bytes in flight (see hook docs for when it is sampled)
	SRTT   time.Duration // smoothed RTT, 0 before the first sample
}

// CcAction is a congestion-control hook's verdict on retransmission.
type CcAction int

// Hook return values.
const (
	// CcNone requests nothing; the Conn continues normally.
	CcNone CcAction = iota
	// CcRetransmit asks the Conn to resend the segment at sndUna.
	CcRetransmit
)

// Congestion-controller registry names for Config.CC.
const (
	CCReno  = "reno"
	CCCubic = "cubic"
	CCBbr   = "bbr"
)

// CCKinds lists the registered controller names in presentation order.
func CCKinds() []string { return []string{CCReno, CCCubic, CCBbr} }

// ValidCC reports whether name selects a registered controller ("" is
// the Reno default).
func ValidCC(name string) bool {
	switch name {
	case "", CCReno, CCCubic, CCBbr:
		return true
	}
	return false
}

// newCongestionControl builds the controller selected by cfg.CC. An
// unknown name is a spec bug (flag parsers validate with ValidCC), so
// it panics rather than guessing. A switch — not a registry map — so
// selection order can never leak map iteration order into a run.
func newCongestionControl(cfg Config) CongestionControl {
	switch cfg.CC {
	case "", CCReno:
		return &reno{}
	case CCCubic:
		return &cubic{}
	case CCBbr:
		return &bbrLite{}
	default:
		panic("tcp: unknown congestion control " + cfg.CC)
	}
}

// reno is NewReno congestion control (RFC 5681 + RFC 6582), the
// default — and the stack's only policy before the CongestionControl
// split, preserved here operation-for-operation so every golden
// artifact stays byte-identical (pinned by the cc_equiv tests against
// the inline reference).
type reno struct {
	cwnd       int
	ssthresh   int
	cwndAcc    int // byte accumulator for congestion avoidance
	dupAcks    int
	inRecovery bool
	recoverPt  int64
}

// Init implements CongestionControl.
func (r *reno) Init(time.Duration) {
	r.cwnd = initCwnd
	r.ssthresh = 1 << 30
	r.cwndAcc = 0
	r.dupAcks = 0
	r.inRecovery = false
	r.recoverPt = 0
}

// Cwnd implements CongestionControl.
func (r *reno) Cwnd() int { return r.cwnd }

// InRecovery implements CongestionControl.
func (r *reno) InRecovery() bool { return r.inRecovery }

// Name implements CongestionControl.
func (r *reno) Name() string { return CCReno }

// OnAck implements CongestionControl.
func (r *reno) OnAck(ev AckEvent) CcAction {
	if r.inRecovery {
		if ev.AckOff >= r.recoverPt {
			// Full ack: leave recovery, deflate.
			r.inRecovery = false
			r.cwnd = r.ssthresh
			r.dupAcks = 0
			return CcNone
		}
		// Partial ack: refill the next hole (NewReno) and deflate by
		// the acked amount, re-inflating one MSS.
		r.cwnd = max(r.cwnd-ev.Acked+mss, mss)
		return CcRetransmit
	}
	r.dupAcks = 0
	r.grow(ev.Acked)
	return CcNone
}

func (r *reno) grow(acked int) {
	if r.cwnd < r.ssthresh {
		r.cwnd += min(acked, mss) // slow start
		return
	}
	// Congestion avoidance: one MSS per cwnd of acked bytes.
	r.cwndAcc += acked
	if r.cwndAcc >= r.cwnd {
		r.cwndAcc -= r.cwnd
		r.cwnd += mss
	}
}

// OnDupAck implements CongestionControl.
func (r *reno) OnDupAck(ev AckEvent) CcAction {
	r.dupAcks++
	if r.inRecovery {
		r.cwnd += mss // inflation
		return CcNone
	}
	if r.dupAcks == 3 {
		r.ssthresh = max(ev.Flight/2, 2*mss)
		r.cwnd = r.ssthresh + 3*mss
		r.inRecovery = true
		r.recoverPt = ev.SndNxt
		return CcRetransmit
	}
	return CcNone
}

// OnRTO implements CongestionControl.
func (r *reno) OnRTO(ev AckEvent) {
	r.ssthresh = max(ev.Flight/2, 2*mss)
	r.cwnd = mss
	r.cwndAcc = 0
	r.dupAcks = 0
	r.inRecovery = false
}

// OnIdle implements CongestionControl.
func (r *reno) OnIdle(time.Duration) {
	r.cwnd = min(r.cwnd, initCwnd)
	r.cwndAcc = 0
}
