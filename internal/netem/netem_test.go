package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func seg(n int) *packet.Segment {
	return &packet.Segment{
		Flow:       packet.Flow{Src: packet.EP(1, 1, 1, 1, 1), Dst: packet.EP(2, 2, 2, 2, 2)},
		PayloadLen: n,
	}
}

type collector struct {
	at   []time.Duration
	segs []*packet.Segment
	sch  *sim.Scheduler
}

func (c *collector) Deliver(s *packet.Segment) {
	c.at = append(c.at, c.sch.Now())
	c.segs = append(c.segs, s)
}

func TestBandwidthMath(t *testing.T) {
	if got := (8 * Mbps).TxTime(1000); got != time.Millisecond {
		t.Fatalf("TxTime(1000B @ 8Mbps) = %v, want 1ms", got)
	}
	if got := (8 * Mbps).BytesIn(time.Second); got != 1000000 {
		t.Fatalf("BytesIn = %d, want 1e6", got)
	}
	if got := Bandwidth(0).TxTime(1000); got != 0 {
		t.Fatalf("zero-rate TxTime = %v, want 0", got)
	}
}

func TestLinkDelayAndSerialization(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	// 8 Mbps, 10 ms delay: a 1000B packet takes 1ms tx + 10ms prop.
	l := NewLink(sch, 8*Mbps, 10*time.Millisecond, 0, nil, c)
	l.Send(seg(960)) // 960+40 = 1000 wire bytes
	sch.Run()
	if len(c.at) != 1 {
		t.Fatal("packet not delivered")
	}
	if c.at[0] != 11*time.Millisecond {
		t.Fatalf("arrival at %v, want 11ms", c.at[0])
	}
}

func TestLinkBackToBackQueueing(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 0, 0, nil, c)
	for i := 0; i < 3; i++ {
		l.Send(seg(960))
	}
	sch.Run()
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i, w := range want {
		if c.at[i] != w {
			t.Fatalf("packet %d delivered at %v, want %v", i, c.at[i], w)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 0, 2500, nil, c) // room for 2.5 packets
	for i := 0; i < 5; i++ {
		l.Send(seg(960))
	}
	sch.Run()
	if l.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", l.Dropped)
	}
	if len(c.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(c.at))
	}
}

func TestQueueDrainsAllowsLaterTraffic(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 0, 1500, nil, c)
	l.Send(seg(960))
	sch.After(5*time.Millisecond, func() { l.Send(seg(960)) })
	sch.Run()
	if len(c.at) != 2 {
		t.Fatalf("delivered %d, want 2 (queue must drain)", len(c.at))
	}
	if l.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after drain, want 0", l.QueueDepth())
	}
}

func TestRandomLossRate(t *testing.T) {
	sch := sim.NewScheduler(42)
	c := &collector{sch: sch}
	l := NewLink(sch, Gbps, 0, 0, RandomLoss{Rate: 0.1}, c)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(seg(100))
	}
	sch.Run()
	rate := float64(l.Dropped) / n
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("observed loss %.3f, want ~0.1", rate)
	}
	if l.Sent+l.Dropped != n {
		t.Fatalf("sent+dropped = %d, want %d", l.Sent+l.Dropped, n)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := &GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, PGood: 0.0, PBad: 0.5}
	drops := 0
	burst, maxBurst := 0, 0
	for i := 0; i < 100000; i++ {
		if g.Drop(rng) {
			drops++
			burst++
			if burst > maxBurst {
				maxBurst = burst
			}
		} else {
			burst = 0
		}
	}
	if drops == 0 {
		t.Fatal("GE model never dropped")
	}
	if maxBurst < 2 {
		t.Fatal("GE model should produce loss bursts")
	}
}

type countTap struct{ n int }

func (ct *countTap) Capture(time.Duration, *packet.Segment) { ct.n++ }

func TestTapSeesOnlySurvivors(t *testing.T) {
	sch := sim.NewScheduler(3)
	c := &collector{sch: sch}
	l := NewLink(sch, Gbps, 0, 0, RandomLoss{Rate: 0.5}, c)
	tap := &countTap{}
	l.AddTap(tap)
	for i := 0; i < 1000; i++ {
		l.Send(seg(100))
	}
	sch.Run()
	if tap.n != l.Sent {
		t.Fatalf("tap saw %d, link sent %d; taps must be after the loss decision", tap.n, l.Sent)
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("want 4 vantage networks, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Down <= 0 || p.Up <= 0 || p.RTT <= 0 {
			t.Errorf("profile %s has non-positive parameters", p.Name)
		}
	}
	for _, want := range []string{"Research", "Residence", "Academic", "Home"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
	if _, ok := ProfileByName("Residence"); !ok {
		t.Error("ProfileByName failed for Residence")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName matched unknown name")
	}
	// The paper's asymmetric profiles.
	if Residence.Down >= 54*Mbps || Residence.Up >= Residence.Down {
		t.Error("Residence must be asymmetric ADSL")
	}
	if Home.Down != 20*Mbps || Home.Up != 3*Mbps {
		t.Error("Home must be 20/3 Mbps cable")
	}
}

func TestNewPathDirections(t *testing.T) {
	sch := sim.NewScheduler(1)
	cl := &collector{sch: sch}
	sv := &collector{sch: sch}
	path := NewPath(sch, Research, cl, sv)
	path.Down.Send(seg(100))
	path.Up.Send(seg(50))
	sch.Run()
	if len(cl.at) != 1 || len(sv.at) != 1 {
		t.Fatalf("client got %d, server got %d; want 1 and 1", len(cl.at), len(sv.at))
	}
	// RTT split: one-way delay should be RTT/2 (plus tiny tx time).
	if cl.at[0] < Research.RTT/2 || cl.at[0] > Research.RTT/2+time.Millisecond {
		t.Fatalf("one-way delay %v, want ~%v", cl.at[0], Research.RTT/2)
	}
}

// Property: FIFO ordering — packets sent in order arrive in order on a
// lossless link, for any packet sizes and send times.
func TestPropertyFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		sch := sim.NewScheduler(11)
		c := &collector{sch: sch}
		l := NewLink(sch, 10*Mbps, 5*time.Millisecond, 0, nil, c)
		for i, s := range sizes {
			n := int(s)%1460 + 1
			seg := seg(n)
			seg.Seq = uint32(i)
			l.Send(seg)
		}
		sch.Run()
		if len(c.segs) != len(sizes) {
			return false
		}
		for i := 1; i < len(c.segs); i++ {
			if c.segs[i].Seq != c.segs[i-1].Seq+1 {
				return false
			}
			if c.at[i] < c.at[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: throughput on a saturated link approaches the configured
// rate regardless of packet size.
func TestPropertyThroughputMatchesRate(t *testing.T) {
	for _, size := range []int{200, 960, 1460} {
		sch := sim.NewScheduler(1)
		c := &collector{sch: sch}
		l := NewLink(sch, 8*Mbps, 0, 0, nil, c)
		total := 0
		for total < 1_000_000 {
			l.Send(seg(size))
			total += size + 40
		}
		sch.Run()
		elapsed := sch.Now().Seconds()
		gotRate := float64(total) * 8 / elapsed
		if gotRate < 7.9e6 || gotRate > 8.1e6 {
			t.Fatalf("size %d: rate %.0f, want ~8e6", size, gotRate)
		}
	}
}

// TestLinkResetMidFlight: Reset discards in-flight packets and takes
// the link's lane out of the scheduler, with no scheduler Reset, so
// nothing of the old flight is left pending or delivered later, and
// the link carries fresh traffic normally.
func TestLinkResetMidFlight(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 8*Mbps, 10*time.Millisecond, 0, nil, c)
	for i := 0; i < 3; i++ {
		l.Send(seg(960)) // 1 ms serialization each: arrivals at 11, 12, 13 ms
	}
	sch.RunUntil(11 * time.Millisecond)
	if len(c.at) != 1 || l.InFlight() != 2 {
		t.Fatalf("before Reset: delivered %d, in flight %d; want 1, 2", len(c.at), l.InFlight())
	}
	l.Reset(8*Mbps, 10*time.Millisecond, 0, nil, nil)
	if n := sch.Pending(); n != 0 {
		t.Fatalf("Pending after Link.Reset = %d, want 0", n)
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight after Reset = %d, want 0", l.InFlight())
	}
	sch.Run()
	if len(c.at) != 1 {
		t.Fatalf("delivered %d packets after Reset, want none beyond the first", len(c.at)-1)
	}
	l.Send(seg(960))
	sch.Run()
	if len(c.at) != 2 || c.at[1] != sch.Now() || sch.Now() != 22*time.Millisecond {
		t.Fatalf("fresh packet delivered at %v (clock %v), want 22ms", c.at, sch.Now())
	}
}

func BenchmarkLinkSend(b *testing.B) {
	sch := sim.NewScheduler(1)
	sink := ReceiverFunc(func(*packet.Segment) {})
	l := NewLink(sch, Gbps, time.Millisecond, 0, nil, sink)
	s := seg(1460)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(s)
		if i%1024 == 0 {
			sch.Run()
		}
	}
	sch.Run()
}
