package tcp

import "time"

// BBR-lite tuning. Real BBR paces on a delivery-rate estimator over
// per-packet send/ack timestamps; the simulator's event-driven stack
// has no pacing layer, so this model-based variant sizes cwnd from
// the same two quantities BBR models — bottleneck bandwidth and
// round-trip propagation time — measured analytically from the ack
// stream on the virtual clock.
const (
	bbrBwWinRounds = 8    // windowed-max bandwidth filter length, rounds
	bbrStartupGain = 2.0  // cwnd gain while probing for the ceiling
	bbrPlateauGain = 1.25 // a round must beat this to extend startup
	bbrFullBwCount = 3    // plateau rounds before leaving startup
	bbrCycleLen    = 8    // PROBE_BW gain-cycle length
	bbrMinCwndSegs = 4    // cwnd floor, segments
)

// bbrCycleGains is the PROBE_BW pacing-gain cycle: probe up, drain
// the queue the probe built, then cruise at the estimated BDP.
var bbrCycleGains = [bbrCycleLen]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bbrLite phases.
const (
	bbrStartup = iota
	bbrDrain
	bbrProbeBW
)

// bbrLite is a model-based BBR-flavoured controller: it estimates the
// bottleneck bandwidth as a windowed max of per-round delivery rates
// (acked bytes over elapsed virtual time), tracks the minimum smoothed
// RTT as RTprop, and sets cwnd = gain × estimated BDP. STARTUP doubles
// the window each round until the delivery rate stops growing, DRAIN
// lets the queue empty, and PROBE_BW cycles gains to re-probe. Loss is
// repaired by the Conn's NewReno machinery (fast retransmit, hole
// refill) but — unlike the loss-based controllers — does not collapse
// the window: the model, not the drop, sizes it.
type bbrLite struct {
	cwnd int

	// Model.
	rtProp time.Duration           // min smoothed RTT observed
	bwWin  [bbrBwWinRounds]float64 // delivery-rate samples, bytes/sec
	bwN    int                     // valid samples in bwWin
	bwIdx  int                     // next slot to overwrite

	// Round accounting: one measurement round per RTprop of ack time.
	roundStart time.Duration // < 0 until the first ack
	roundBytes int

	phase        int
	fullBw       float64
	fullBwRounds int
	cycleIdx     int
	cycleStart   time.Duration

	dupAcks    int
	inRecovery bool
	recoverPt  int64
}

// Init implements CongestionControl.
func (b *bbrLite) Init(time.Duration) {
	b.cwnd = max(initCwnd, bbrMinCwndSegs*mss)
	b.rtProp = 0
	b.bwN, b.bwIdx = 0, 0
	b.roundStart = -1
	b.roundBytes = 0
	b.phase = bbrStartup
	b.fullBw = 0
	b.fullBwRounds = 0
	b.cycleIdx = 0
	b.cycleStart = 0
	b.dupAcks = 0
	b.inRecovery = false
	b.recoverPt = 0
}

// Cwnd implements CongestionControl.
func (b *bbrLite) Cwnd() int { return b.cwnd }

// InRecovery implements CongestionControl.
func (b *bbrLite) InRecovery() bool { return b.inRecovery }

// Name implements CongestionControl.
func (b *bbrLite) Name() string { return CCBbr }

// btlBw returns the windowed-max bandwidth estimate in bytes/sec.
func (b *bbrLite) btlBw() float64 {
	bw := 0.0
	for i := 0; i < b.bwN; i++ {
		if b.bwWin[i] > bw {
			bw = b.bwWin[i]
		}
	}
	return bw
}

// bdp returns the estimated bandwidth-delay product in bytes, or 0
// while the model has no samples yet.
func (b *bbrLite) bdp() int {
	bw := b.btlBw()
	if bw <= 0 || b.rtProp <= 0 {
		return 0
	}
	return int(bw * b.rtProp.Seconds())
}

// floorCwnd clamps the window to the operating floor.
func (b *bbrLite) floorCwnd() {
	if min := bbrMinCwndSegs * mss; b.cwnd < min {
		b.cwnd = min
	}
}

// OnAck implements CongestionControl.
func (b *bbrLite) OnAck(ev AckEvent) CcAction {
	if ev.SRTT > 0 && (b.rtProp == 0 || ev.SRTT < b.rtProp) {
		b.rtProp = ev.SRTT
	}
	action := CcNone
	if b.inRecovery {
		if ev.AckOff >= b.recoverPt {
			b.inRecovery = false
			b.dupAcks = 0
		} else {
			action = CcRetransmit // refill the hole; window stays model-sized
		}
	} else {
		b.dupAcks = 0
	}

	// Round accounting: fold a delivery-rate sample into the filter
	// once per RTprop of ack time.
	if b.roundStart < 0 {
		b.roundStart = ev.Now
	}
	b.roundBytes += ev.Acked
	if b.rtProp > 0 && ev.Now-b.roundStart >= b.rtProp {
		elapsed := (ev.Now - b.roundStart).Seconds()
		if elapsed > 0 {
			b.pushBw(float64(b.roundBytes) / elapsed)
		}
		b.roundStart = ev.Now
		b.roundBytes = 0
	}

	switch b.phase {
	case bbrStartup:
		// Exponential probing: grow by every acked byte (gain ~2).
		b.cwnd += ev.Acked
		if cap := int(bbrStartupGain * float64(max(b.bdp(), initCwnd))); b.bdp() > 0 && b.cwnd > cap {
			b.cwnd = cap
		}
	case bbrDrain:
		if bdp := b.bdp(); bdp > 0 {
			b.cwnd = bdp
			if ev.Flight <= bdp {
				b.phase = bbrProbeBW
				b.cycleIdx = 0
				b.cycleStart = ev.Now
			}
		}
	case bbrProbeBW:
		if b.rtProp > 0 {
			for ev.Now-b.cycleStart >= b.rtProp {
				b.cycleStart += b.rtProp
				b.cycleIdx = (b.cycleIdx + 1) % bbrCycleLen
			}
		}
		if bdp := b.bdp(); bdp > 0 {
			b.cwnd = int(bbrCycleGains[b.cycleIdx] * float64(bdp))
		}
	}
	b.floorCwnd()
	return action
}

// pushBw folds one delivery-rate sample into the windowed-max filter
// and runs the per-round phase logic.
func (b *bbrLite) pushBw(sample float64) {
	b.bwWin[b.bwIdx] = sample
	b.bwIdx = (b.bwIdx + 1) % bbrBwWinRounds
	if b.bwN < bbrBwWinRounds {
		b.bwN++
	}
	if b.phase == bbrStartup {
		if sample > bbrPlateauGain*b.fullBw {
			b.fullBw = sample
			b.fullBwRounds = 0
		} else if b.fullBwRounds++; b.fullBwRounds >= bbrFullBwCount {
			b.phase = bbrDrain
		}
	}
}

// OnDupAck implements CongestionControl.
func (b *bbrLite) OnDupAck(ev AckEvent) CcAction {
	b.dupAcks++
	if b.inRecovery {
		return CcNone
	}
	if b.dupAcks == 3 {
		b.inRecovery = true
		b.recoverPt = ev.SndNxt
		return CcRetransmit
	}
	return CcNone
}

// OnRTO implements CongestionControl.
func (b *bbrLite) OnRTO(AckEvent) {
	// A timeout means the model badly oversized the window (or the
	// path died); restart conservatively but keep the learned model.
	b.cwnd = max(initCwnd, bbrMinCwndSegs*mss)
	b.roundStart = -1
	b.roundBytes = 0
	b.dupAcks = 0
	b.inRecovery = false
}

// OnIdle implements CongestionControl.
func (b *bbrLite) OnIdle(time.Duration) {
	b.cwnd = min(b.cwnd, max(initCwnd, bbrMinCwndSegs*mss))
	b.roundStart = -1
	b.roundBytes = 0
}
