package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Deterministic accounting checks under dynamics churn: queue occupancy
// and committed departure times (busyUntil) across rate ramps and
// outages, and delivery/tap ordering when a delay shrink forces the
// flight ring's non-monotone sorted-insert fallback. The randomized
// equivalence suite (pump_test.go) covers the same territory
// statistically; these pin the exact arithmetic.

// TestRateRampMidSerialization changes the rate while a packet is on
// the wire: committed departures keep their entry-time schedule, the
// next packet starts at the committed backlog's completion and pays the
// new rate, and QueueDepth reflects drains at exact serialization ends.
func TestRateRampMidSerialization(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 0, 0, nil, c) // 1000B wire = 1ms
	l.Send(seg(960))
	l.Send(seg(960)) // committed: done at 1ms and 2ms
	sch.At(500*time.Microsecond, func() {
		l.SetRate(4 * Mbps) // mid-serialization of packet 1
		if got := l.QueueDepth(); got != 2000 {
			t.Fatalf("QueueDepth at 0.5ms = %d, want 2000", got)
		}
	})
	sch.At(1500*time.Microsecond, func() {
		if got := l.QueueDepth(); got != 1000 {
			t.Fatalf("QueueDepth at 1.5ms = %d, want 1000 (first drain at 1ms)", got)
		}
		l.Send(seg(960)) // starts at busyUntil=2ms, 2ms tx at 4 Mbps
	})
	sch.At(2500*time.Microsecond, func() {
		if got := l.QueueDepth(); got != 1000 {
			t.Fatalf("QueueDepth at 2.5ms = %d, want 1000 (second drain at 2ms)", got)
		}
	})
	sch.Run()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(c.at) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(c.at), len(want))
	}
	for i, w := range want {
		if c.at[i] != w {
			t.Fatalf("packet %d delivered at %v, want %v", i, c.at[i], w)
		}
	}
	if got := l.QueueDepth(); got != 0 {
		t.Fatalf("final QueueDepth = %d, want 0", got)
	}
}

// TestOutageMidFlight blocks the link while a packet is in flight: the
// in-flight packet still arrives, sends during the outage drop into
// OutageDrops, and the committed backlog (busyUntil) survives the
// outage, delaying the first post-outage packet.
func TestOutageMidFlight(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 5*time.Millisecond, 0, nil, c)
	l.Send(seg(960)) // done 1ms, arrive 6ms
	sch.At(200*time.Microsecond, func() { l.SetBlocked(true) })
	sch.At(400*time.Microsecond, func() { l.Send(seg(960)) }) // dropped
	sch.At(600*time.Microsecond, func() { l.SetBlocked(false) })
	sch.At(700*time.Microsecond, func() { l.Send(seg(960)) }) // starts at 1ms
	sch.Run()
	if l.Dropped != 1 || l.OutageDrops != 1 {
		t.Fatalf("Dropped=%d OutageDrops=%d, want 1 and 1", l.Dropped, l.OutageDrops)
	}
	want := []time.Duration{6 * time.Millisecond, 7 * time.Millisecond}
	if len(c.at) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(c.at), len(want))
	}
	for i, w := range want {
		if c.at[i] != w {
			t.Fatalf("packet %d delivered at %v, want %v", i, c.at[i], w)
		}
	}
}

type orderTap struct {
	sch *sim.Scheduler
	at  []time.Duration
	ids []uint32
}

func (o *orderTap) Capture(at time.Duration, s *packet.Segment) {
	o.at = append(o.at, at)
	o.ids = append(o.ids, s.Seq)
}

// TestDelayShrinkReordersInFlight shrinks the propagation delay while a
// packet is mid-flight: the later packet overtakes it (the flight
// ring's sorted-insert fallback plus a new, earlier lane head), taps
// still capture in send order, and queue accounting stays exact.
func TestDelayShrinkReordersInFlight(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 5*time.Millisecond, 0, nil, c)
	tap := &orderTap{sch: sch}
	l.AddTap(tap)
	p1, p2 := seg(960), seg(960)
	p1.Seq, p2.Seq = 1, 2
	l.Send(p1) // done 1ms, arrive 6ms
	sch.At(1200*time.Microsecond, func() { l.SetDelay(0) })
	sch.At(1300*time.Microsecond, func() { l.Send(p2) }) // done 2.3ms, arrive 2.3ms
	sch.Run()
	if len(c.segs) != 2 || c.segs[0].Seq != 2 || c.segs[1].Seq != 1 {
		t.Fatalf("delivery order = %v, want packet 2 before packet 1", []uint32{c.segs[0].Seq, c.segs[1].Seq})
	}
	if c.at[0] != 2300*time.Microsecond || c.at[1] != 6*time.Millisecond {
		t.Fatalf("delivery times = %v, want [2.3ms 6ms]", c.at)
	}
	if len(tap.ids) != 2 || tap.ids[0] != 1 || tap.ids[1] != 2 {
		t.Fatalf("tap order = %v, want send order [1 2]", tap.ids)
	}
	if got := l.QueueDepth(); got != 0 {
		t.Fatalf("final QueueDepth = %d, want 0", got)
	}
}

// TestDelayShrinkEqualArrivalKeepsSendOrder shrinks the delay so a
// later packet's arrival lands at exactly an in-flight packet's
// timestamp: equal-time deliveries must keep send order (the fallback
// inserts ties after existing records).
func TestDelayShrinkEqualArrivalKeepsSendOrder(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 5*time.Millisecond, 0, nil, c)
	p1, p2 := seg(960), seg(960)
	p1.Seq, p2.Seq = 1, 2
	l.Send(p1) // done 1ms, arrive 6ms
	sch.At(1000*time.Microsecond, func() {
		l.SetDelay(4 * time.Millisecond)
		l.Send(p2) // done 2ms, arrive 6ms: exact tie
	})
	sch.Run()
	if len(c.segs) != 2 || c.segs[0].Seq != 1 || c.segs[1].Seq != 2 {
		t.Fatalf("equal-arrival order = [%d %d], want send order [1 2]", c.segs[0].Seq, c.segs[1].Seq)
	}
	if c.at[0] != 6*time.Millisecond || c.at[1] != 6*time.Millisecond {
		t.Fatalf("delivery times = %v, want both 6ms", c.at)
	}
}
