package tcp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Property tests drive the controllers directly with synthetic
// AckEvent streams — no network — so the window laws can be asserted
// against hand-built scenarios: CUBIC may never shrink without a loss
// signal and must trace the concave/convex cubic profile around its
// epoch, and BBR-lite's PROBE_BW gain cycle must be exactly periodic
// in RTprop under a steady model.

// TestCubicNeverShrinksWithoutLoss: across seeded random ack streams
// (variable acked sizes, inter-ack gaps and RTT estimates, spanning
// slow start and congestion avoidance) the window is monotone
// non-decreasing as long as no dup-ack threshold or RTO fires.
func TestCubicNeverShrinksWithoutLoss(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cu := &cubic{}
			cu.Init(0)
			// Half the streams start in congestion avoidance.
			if seed%2 == 0 {
				cu.ssthresh = cu.cwnd
			}
			now := time.Duration(0)
			off := int64(0)
			prev := cu.Cwnd()
			for i := 0; i < 5000; i++ {
				now += time.Duration(1+rng.Intn(50)) * time.Millisecond
				acked := 1 + rng.Intn(mss)
				off += int64(acked)
				cu.OnAck(AckEvent{
					Now: now, Acked: acked, AckOff: off, SndNxt: off + int64(cu.Cwnd()),
					Flight: cu.Cwnd(), SRTT: time.Duration(20+rng.Intn(200)) * time.Millisecond,
				})
				if w := cu.Cwnd(); w < prev {
					t.Fatalf("ack %d: window shrank %d -> %d with no loss signal", i, prev, w)
				} else {
					prev = w
				}
			}
		})
	}
}

// TestCubicConcaveConvexProfile pins the shape of the post-loss curve:
// anchored below W_max the window first climbs steeply (concave
// region), flattens into the plateau around K, then accelerates again
// past W_max (convex max-probing). The assertion compares mean growth
// rates over the three regions — plateau growth must be the slowest.
func TestCubicConcaveConvexProfile(t *testing.T) {
	const srtt = 200 * time.Millisecond
	cu := &cubic{}
	cu.Init(0)
	cu.cwnd = 60 * mss

	// One loss episode: three dup acks, then the full ack that exits
	// recovery and re-anchors the curve at W_max = 60 segments.
	off := int64(1 << 20)
	flight := cu.cwnd
	for i := 0; i < 3; i++ {
		cu.OnDupAck(AckEvent{Now: 0, AckOff: off, SndNxt: off + int64(flight), Flight: flight, SRTT: srtt})
	}
	if !cu.InRecovery() {
		t.Fatal("three dup acks did not enter recovery")
	}
	cu.OnAck(AckEvent{Now: 0, Acked: flight, AckOff: off + int64(flight),
		SndNxt: off + int64(flight), Flight: 0, SRTT: srtt})
	if cu.InRecovery() {
		t.Fatal("full ack did not exit recovery")
	}
	if cu.wMax != 60 {
		t.Fatalf("wMax = %v segments after loss at 60, want 60", cu.wMax)
	}

	// Steady ack clock: one MSS every 10 ms. K = cbrt((60-42)/0.4) ~
	// 3.56 s; sample the window every 100 ms out past 2K.
	type sample struct {
		at time.Duration
		w  int
	}
	var samples []sample
	now := time.Duration(0)
	ackOff := off + int64(flight)
	for now < 8*time.Second {
		now += 10 * time.Millisecond
		ackOff += int64(mss)
		cu.OnAck(AckEvent{Now: now, Acked: mss, AckOff: ackOff,
			SndNxt: ackOff + int64(cu.Cwnd()), Flight: cu.Cwnd(), SRTT: srtt})
		if now%(100*time.Millisecond) == 0 {
			samples = append(samples, sample{at: now, w: cu.Cwnd()})
		}
	}
	k := time.Duration(math.Cbrt((cu.wMax-42)/cubicC) * float64(time.Second))
	rate := func(from, to time.Duration) float64 {
		var first, last sample
		for _, s := range samples {
			if s.at >= from && first.at == 0 {
				first = s
			}
			if s.at <= to {
				last = s
			}
		}
		return float64(last.w-first.w) / (last.at - first.at).Seconds()
	}
	early := rate(0, 1*time.Second)                                  // concave climb
	plateau := rate(k-500*time.Millisecond, k+500*time.Millisecond)  // around K
	late := rate(2*k-500*time.Millisecond, 2*k+500*time.Millisecond) // convex probe
	if !(plateau < early) || !(plateau < late) {
		t.Fatalf("cubic profile broken: early %.0f B/s, plateau %.0f B/s, late %.0f B/s (K=%v)",
			early, plateau, late, k)
	}
	// And the whole trajectory is monotone — concave/convex shaping
	// never implies shrinking.
	for i := 1; i < len(samples); i++ {
		if samples[i].w < samples[i-1].w {
			t.Fatalf("window shrank %d -> %d at %v with no loss", samples[i-1].w, samples[i].w, samples[i].at)
		}
	}
}

// TestBbrProbeCyclePeriodicity pins PROBE_BW: under a steady delivery
// model (constant measured bandwidth, constant RTT) the window follows
// the 8-slot gain cycle — probe at 1.25x BDP, drain at 0.75x, cruise
// at 1x — with period exactly 8 x RTprop, repeating cycle after cycle.
func TestBbrProbeCyclePeriodicity(t *testing.T) {
	const rtProp = 50 * time.Millisecond
	const bw = 1e6 // bytes/sec
	b := &bbrLite{}
	b.Init(0)
	b.phase = bbrProbeBW
	b.rtProp = rtProp
	b.bwWin[0] = bw
	b.bwN = 1
	b.bwIdx = 1
	// Anchor the measurement round at t=0 so each round window holds
	// exactly one RTprop's worth of the ack clock below.
	b.roundStart = 0
	bdp := int(bw * rtProp.Seconds()) // 50000 bytes

	// Ack clock that reproduces exactly bw: 5000 bytes every 5 ms, so
	// every RTprop-round sample the filter folds in equals bw and the
	// model never drifts.
	const tick = 5 * time.Millisecond
	const ackedPerTick = 5000
	period := bbrCycleLen * rtProp
	var cwnds []int
	now := time.Duration(0)
	off := int64(0)
	for now < 3*period {
		now += tick
		off += ackedPerTick
		b.OnAck(AckEvent{Now: now, Acked: ackedPerTick, AckOff: off,
			SndNxt: off + int64(b.Cwnd()), Flight: b.Cwnd(), SRTT: rtProp})
		cwnds = append(cwnds, b.Cwnd())
		// Phase check: the window must be the slot gain times BDP.
		slot := int(now/rtProp) % bbrCycleLen
		want := int(bbrCycleGains[slot] * float64(bdp))
		if b.Cwnd() != want {
			t.Fatalf("at %v (slot %d): cwnd %d, want gain %.2f x bdp %d = %d",
				now, slot, b.Cwnd(), bbrCycleGains[slot], bdp, want)
		}
	}
	// Exact periodicity across cycles.
	perCycle := int(period / tick)
	for i := perCycle; i < len(cwnds); i++ {
		if cwnds[i] != cwnds[i-perCycle] {
			t.Fatalf("probe cycle not periodic: tick %d cwnd %d != tick %d cwnd %d",
				i, cwnds[i], i-perCycle, cwnds[i-perCycle])
		}
	}
	// All three gain levels were actually visited.
	min, max := cwnds[0], cwnds[0]
	for _, w := range cwnds {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if min != int(0.75*float64(bdp)) || max != int(1.25*float64(bdp)) {
		t.Fatalf("gain cycle never hit probe/drain levels: min %d max %d bdp %d", min, max, bdp)
	}
}

// TestBbrStartupExitsOnPlateau: a delivery rate that stops growing
// must move STARTUP to DRAIN within bbrFullBwCount rounds, and a loss
// burst in PROBE_BW must not collapse the window below the model —
// the defining difference from the loss-based controllers.
func TestBbrStartupExitsOnPlateau(t *testing.T) {
	const rtProp = 50 * time.Millisecond
	b := &bbrLite{}
	b.Init(0)
	if b.phase != bbrStartup {
		t.Fatal("fresh bbrLite not in startup")
	}
	// Constant-rate acks: every round measures the same bandwidth, so
	// the plateau detector must fire after bbrFullBwCount rounds.
	now := time.Duration(0)
	off := int64(0)
	for i := 0; i < 200 && b.phase == bbrStartup; i++ {
		now += 5 * time.Millisecond
		off += 5000
		b.OnAck(AckEvent{Now: now, Acked: 5000, AckOff: off,
			SndNxt: off + int64(b.Cwnd()), Flight: b.Cwnd() / 2, SRTT: rtProp})
	}
	if b.phase == bbrStartup {
		t.Fatal("startup never exited on a flat delivery rate")
	}

	// Drive into PROBE_BW, then hit it with a dup-ack loss episode:
	// the window must stay model-sized (>= 0.75 x BDP), not collapse.
	for i := 0; i < 400 && b.phase != bbrProbeBW; i++ {
		now += 5 * time.Millisecond
		off += 5000
		b.OnAck(AckEvent{Now: now, Acked: 5000, AckOff: off,
			SndNxt: off + int64(b.Cwnd()), Flight: b.bdp(), SRTT: rtProp})
	}
	if b.phase != bbrProbeBW {
		t.Fatal("never reached PROBE_BW")
	}
	bdp := b.bdp()
	flight := b.Cwnd()
	for i := 0; i < 3; i++ {
		b.OnDupAck(AckEvent{Now: now, AckOff: off, SndNxt: off + int64(flight), Flight: flight, SRTT: rtProp})
	}
	if !b.InRecovery() {
		t.Fatal("three dup acks did not mark recovery")
	}
	if b.Cwnd() < int(0.75*float64(bdp)) {
		t.Fatalf("loss collapsed the BBR window: cwnd %d < 0.75 x bdp %d", b.Cwnd(), bdp)
	}
}
