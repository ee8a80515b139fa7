package analysis

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

// Additional edge-case and property tests for the analyzer.

func TestProbeFilteredFromCycles(t *testing.T) {
	s := newSynth()
	s.data(nil, 1<<20, 120*time.Microsecond)
	// Zero-window probes: 1-byte segments every second inside a long
	// OFF period. They must not register as ON periods.
	for i := 0; i < 10; i++ {
		s.idle(time.Second)
		s.data(nil, 1, 0)
	}
	s.idle(time.Second)
	s.data(nil, 512<<10, 120*time.Microsecond)
	r := replay(s.tr, Config{})
	if len(r.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2 (probes must not split the OFF period)", len(r.Cycles))
	}
	if off := r.Cycles[0].OffAfter; off < 10*time.Second {
		t.Fatalf("OFF period %v, want the full probe-covered silence", off)
	}
}

func TestSmallSegmentsInsideOnPeriodCount(t *testing.T) {
	// A tiny segment in the middle of an ON burst (e.g. an HTTP
	// header) is data, not a probe.
	s := newSynth()
	s.data(nil, 64<<10, 120*time.Microsecond)
	s.data([]byte("tiny"), 0, 120*time.Microsecond)
	s.data(nil, 64<<10, 120*time.Microsecond)
	r := replay(s.tr, Config{})
	if len(r.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(r.Cycles))
	}
	if r.Cycles[0].Bytes != int64(128<<10)+4 {
		t.Fatalf("cycle bytes = %d", r.Cycles[0].Bytes)
	}
}

func TestNearContinuousTransferIsBulk(t *testing.T) {
	// A bulk transfer with one loss-recovery stall must classify as
	// No ON-OFF, not as two giant blocks.
	s := newSynth()
	s.data(nil, 20<<20, 120*time.Microsecond)
	s.idle(300 * time.Millisecond) // an RTO-backoff stall
	s.data(nil, 30<<20, 120*time.Microsecond)
	r := replay(s.tr, Config{})
	if r.Strategy != NoOnOff {
		t.Fatalf("strategy = %v, want No ON-OFF (stall << active span)", r.Strategy)
	}
}

func TestMultiFlowAggregation(t *testing.T) {
	// Blocks delivered over different connections (iPad/Netflix style)
	// aggregate into one ON-OFF view.
	tr := &trace.Trace{}
	dt := tr.Tap(trace.Down)
	now := time.Duration(0)
	for i := 0; i < 6; i++ {
		f := packet.Flow{
			Src: packet.EP(203, 0, 113, 10, 80),
			Dst: packet.EP(10, 0, 0, 1, uint16(40000+i)),
		}
		for b := 0; b < 700<<10; b += 1460 {
			dt.Capture(now, &packet.Segment{Flow: f, Seq: uint32(1000 + b), Flags: packet.FlagACK, PayloadLen: 1460})
			now += 150 * time.Microsecond
		}
		now += 2 * time.Second
	}
	r := replay(tr, Config{})
	if r.ConnCount != 6 {
		t.Fatalf("conn count = %d", r.ConnCount)
	}
	if len(r.Cycles) != 6 {
		t.Fatalf("cycles = %d, want 6", len(r.Cycles))
	}
	if r.Strategy != ShortOnOff {
		t.Fatalf("strategy = %v", r.Strategy)
	}
}

func TestOffThresholdConfigurable(t *testing.T) {
	s := newSynth()
	s.data(nil, 1<<20, 120*time.Microsecond)
	s.idle(200 * time.Millisecond)
	s.data(nil, 64<<10, 120*time.Microsecond)
	// The 150 ms threshold splits them into two cycles.
	if r := replay(s.tr, Config{}); len(r.Cycles) != 2 {
		t.Fatalf("default threshold cycles = %d", len(r.Cycles))
	}
}

// Property: cycle invariants hold for arbitrary data/idle interleaving —
// bytes sum to the trace total, cycles are ordered and non-overlapping,
// and all OFF gaps exceed the threshold.
func TestPropertyCycleInvariants(t *testing.T) {
	f := func(steps []uint16) bool {
		s := newSynth()
		var total int64
		for _, st := range steps {
			n := int(st%64+1) * 1460
			s.data(nil, n, 120*time.Microsecond)
			total += int64(n)
			s.idle(time.Duration(st%500) * time.Millisecond)
		}
		if total == 0 {
			return true
		}
		r := replay(s.tr, Config{})
		var sum int64
		for i, c := range r.Cycles {
			sum += c.Bytes
			if c.End < c.Start {
				return false
			}
			if i > 0 && c.Start < r.Cycles[i-1].End {
				return false
			}
			if i < len(r.Cycles)-1 && c.OffAfter <= 150*time.Millisecond {
				return false
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: classification is stable under trace duplication in time —
// appending the same pattern again never turns a short-cycle session
// into bulk.
func TestPropertyClassificationMonotone(t *testing.T) {
	build := func(reps int) *trace.Trace {
		s := newSynth()
		s.data(nil, 2<<20, 120*time.Microsecond)
		for i := 0; i < reps; i++ {
			s.idle(time.Second)
			s.data(nil, 64<<10, 120*time.Microsecond)
		}
		return s.tr
	}
	small := replay(build(5), Config{})
	big := replay(build(50), Config{})
	if small.Strategy != ShortOnOff || big.Strategy != ShortOnOff {
		t.Fatalf("strategies: %v, %v", small.Strategy, big.Strategy)
	}
	if big.MedianBlock() != small.MedianBlock() {
		t.Fatalf("median block changed with repetition: %d vs %d", big.MedianBlock(), small.MedianBlock())
	}
}

func TestRTTFallbackWithoutHandshake(t *testing.T) {
	tr := &trace.Trace{}
	dt := tr.Tap(trace.Down)
	dt.Capture(time.Millisecond, &packet.Segment{Flow: down, Seq: 1, Flags: packet.FlagACK, PayloadLen: 1460})
	r := replay(tr, Config{})
	if r.RTT != 40*time.Millisecond {
		t.Fatalf("fallback RTT = %v", r.RTT)
	}
}
