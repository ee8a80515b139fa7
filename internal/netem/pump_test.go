package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Lazy drains and lane delivery must be invisible: receivers, taps and
// queue-depth reads must observe exactly the sequence a link scheduling
// two events per packet produces. refLink below IS that link — the
// implementation from before event elision, kept verbatim as an
// executable spec — and runLinkWorkload drives both through identical
// randomized scripts over a shared two-uplinks-into-one topology with
// dynamics churn (rate ramps mid-serialization, outages mid-flight,
// delay shrinks forcing the sorted-insert fallback). Traces diverge at
// the first ordering difference, because every later loss decision
// draws from an rng whose state depends on the exact call sequence.

type refDelivery struct {
	link *refLink
	seg  *packet.Segment
	size int32
}

const (
	refOpDrain int32 = iota
	refOpDeliver
)

type refLink struct {
	sch       *sim.Scheduler
	rate      Bandwidth
	delay     time.Duration
	queueCap  int
	queued    int
	busyUntil time.Duration
	loss      LossModel
	blocked   bool
	dst       Receiver
	taps      []Tap
	pool      []*refDelivery

	sent, dropped, outageDrops int
	bytes                      int64
}

func (d *refDelivery) RunTask(op int32) {
	l := d.link
	if op == refOpDrain {
		l.queued -= int(d.size)
		return
	}
	seg := d.seg
	d.seg = nil
	l.pool = append(l.pool, d)
	l.dst.Deliver(seg)
}

func (l *refLink) Send(seg *packet.Segment) {
	size := seg.WireLen()
	if l.blocked {
		l.dropped++
		l.outageDrops++
		return
	}
	if l.loss.Drop(l.sch.Rand()) {
		l.dropped++
		return
	}
	if l.queueCap > 0 && l.queued+size > l.queueCap {
		l.dropped++
		return
	}
	for _, t := range l.taps {
		t.Capture(l.sch.Now(), seg)
	}
	l.queued += size
	l.sent++
	l.bytes += int64(size)
	start := l.busyUntil
	if now := l.sch.Now(); start < now {
		start = now
	}
	done := start + l.rate.TxTime(size)
	l.busyUntil = done
	arrive := done + l.delay
	var d *refDelivery
	if n := len(l.pool); n > 0 {
		d = l.pool[n-1]
		l.pool = l.pool[:n-1]
		d.seg, d.size = seg, int32(size)
	} else {
		d = &refDelivery{link: l, seg: seg, size: int32(size)}
	}
	l.sch.AtTask(done, d, refOpDrain)
	l.sch.AtTask(arrive, d, refOpDeliver)
}

func (l *refLink) Deliver(seg *packet.Segment) { l.Send(seg) }
func (l *refLink) SetRate(r Bandwidth)         { l.rate = r }
func (l *refLink) SetDelay(d time.Duration)    { l.delay = d }
func (l *refLink) SetBlocked(b bool)           { l.blocked = b }
func (l *refLink) SetLoss(m LossModel)         { l.loss = m }
func (l *refLink) AddTap(t Tap)                { l.taps = append(l.taps, t) }
func (l *refLink) QueueDepth() int             { return l.queued }
func (l *refLink) stats() (int, int, int, int64) {
	return l.sent, l.dropped, l.outageDrops, l.bytes
}

func (l *Link) stats() (int, int, int, int64) {
	return l.Sent, l.Dropped, l.OutageDrops, l.Bytes
}

// testLink is the surface the workload script drives, implemented by
// both the pump Link and the reference.
type testLink interface {
	Receiver
	Send(*packet.Segment)
	SetRate(Bandwidth)
	SetDelay(time.Duration)
	SetBlocked(bool)
	SetLoss(LossModel)
	AddTap(Tap)
	QueueDepth() int
	stats() (int, int, int, int64)
}

func newRefLink(sch *sim.Scheduler, rate Bandwidth, delay time.Duration, q int, loss LossModel, dst Receiver) testLink {
	if loss == nil {
		loss = NoLoss{}
	}
	return &refLink{sch: sch, rate: rate, delay: delay, queueCap: q, loss: loss, dst: dst}
}

func newPumpLink(sch *sim.Scheduler, rate Bandwidth, delay time.Duration, q int, loss LossModel, dst Receiver) testLink {
	return NewLink(sch, rate, delay, q, loss, dst)
}

// pumpEvt is one observable: kind 0 = delivery at the sink, 1 = tap
// capture, 2 = queue-depth sample, 3 = final stats line.
type pumpEvt struct {
	kind int8
	link int8
	at   time.Duration
	a, b int64
}

type traceTap struct {
	link  int8
	trace *[]pumpEvt
	sch   *sim.Scheduler
}

func (t *traceTap) Capture(at time.Duration, seg *packet.Segment) {
	*t.trace = append(*t.trace, pumpEvt{kind: 1, link: t.link, at: at, a: int64(seg.Seq)})
}

// runLinkWorkload builds two access links feeding a shared bottleneck
// (the cross-link tie-break case: default-profile txtime==delay
// coincidences make same-timestamp drains and delivers across links the
// common case, and the shared queue's overflow decisions observe them)
// and replays a seed-derived script of sends and dynamics against it.
func runLinkWorkload(mk func(*sim.Scheduler, Bandwidth, time.Duration, int, LossModel, Receiver) testLink, seed int64, n int) []pumpEvt {
	sch := sim.NewScheduler(7)
	rng := rand.New(rand.NewSource(seed))
	var trace []pumpEvt

	sink := ReceiverFunc(func(s *packet.Segment) {
		trace = append(trace, pumpEvt{kind: 0, at: sch.Now(), a: int64(s.Seq)})
	})
	// Shared bottleneck with a shallow queue so overflow decisions (which
	// read lazily settled occupancy) are frequent.
	shared := mk(sch, 6*Mbps, 2*time.Millisecond, 6000, nil, sink)
	up := [3]testLink{
		mk(sch, 6*Mbps, 2*time.Millisecond, 9000, nil, shared),
		mk(sch, 12*Mbps, time.Millisecond, 9000, nil, shared),
		shared,
	}
	for i := range up {
		up[i].AddTap(&traceTap{link: int8(i), trace: &trace, sch: sch})
	}

	id := uint32(0)
	send := func(l testLink, payload int) {
		id++
		s := seg(payload)
		s.Seq = id
		l.Send(s)
	}
	rates := []Bandwidth{1500 * Kbps, 3 * Mbps, 6 * Mbps, 12 * Mbps}
	delays := []time.Duration{0, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
		li := rng.Intn(3)
		action := rng.Intn(10)
		sch.At(at, func() {
			l := up[li]
			switch {
			case action < 4: // burst of sends; 1460 forces txtime==delay ties
				for k := rng.Intn(3); k >= 0; k-- {
					if rng.Intn(2) == 0 {
						send(l, 1460)
					} else {
						send(l, rng.Intn(1460)+1)
					}
				}
			case action < 5: // rate ramp mid-serialization
				l.SetRate(rates[rng.Intn(len(rates))])
			case action < 6: // delay change; shrinks force the fallback
				l.SetDelay(delays[rng.Intn(len(delays))])
			case action < 7: // outage mid-flight
				l.SetBlocked(rng.Intn(2) == 0)
			case action < 8:
				if rng.Intn(2) == 0 {
					l.SetLoss(RandomLoss{Rate: 0.2})
				} else {
					l.SetLoss(NoLoss{})
				}
			default: // observe lazily settled occupancy
				trace = append(trace, pumpEvt{kind: 2, link: int8(li), at: sch.Now(), a: int64(l.QueueDepth())})
			}
		})
	}
	sch.RunUntil(20 * time.Millisecond)
	for i := range up {
		trace = append(trace, pumpEvt{kind: 2, link: int8(i), at: sch.Now(), a: int64(up[i].QueueDepth())})
	}
	sch.Run()
	for i := range up {
		sent, dropped, outage, bytes := up[i].stats()
		trace = append(trace, pumpEvt{kind: 3, link: int8(i), at: sch.Now(),
			a: int64(sent)<<32 | int64(dropped)<<16 | int64(outage), b: bytes})
		trace = append(trace, pumpEvt{kind: 2, link: int8(i), a: int64(up[i].QueueDepth())})
	}
	trace = append(trace, pumpEvt{kind: 3, link: -1, at: sch.Now(), a: int64(sch.Pending())})
	return trace
}

func diffPumpTraces(t *testing.T, seed int64, ref, got []pumpEvt) {
	t.Helper()
	for i := 0; i < len(ref) && i < len(got); i++ {
		if ref[i] != got[i] {
			t.Fatalf("seed %d: traces diverge at %d:\n  ref  %+v\n  pump %+v", seed, i, ref[i], got[i])
		}
	}
	if len(ref) != len(got) {
		t.Fatalf("seed %d: trace lengths differ: ref %d vs pump %d", seed, len(ref), len(got))
	}
}

// TestPumpEquivalence pins the tentpole invariant: the lane link
// delivers randomized churn workloads in exactly the order the
// two-events-per-packet reference link does.
func TestPumpEquivalence(t *testing.T) {
	n := 160
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := runLinkWorkload(newRefLink, seed, n)
		got := runLinkWorkload(newPumpLink, seed, n)
		diffPumpTraces(t, seed, ref, got)
	}
}

// FuzzPumpEquivalence lets the fuzzer hunt for script shapes where the
// lane link's observable order deviates from the reference link.
func FuzzPumpEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(64))
	f.Add(int64(42), uint8(200))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		size := int(n)%200 + 1
		ref := runLinkWorkload(newRefLink, seed, size)
		got := runLinkWorkload(newPumpLink, seed, size)
		diffPumpTraces(t, seed, ref, got)
	})
}

// TestPumpStopPerDelivery: a receiver that calls Scheduler.Stop ends
// the Run right after its own delivery, as the reference link's one
// event per delivery does, even when more deliveries share the instant
// (an infinite-rate link sends three packets that all arrive at 1 ms).
// The delivery log and the clock after each Run must match the
// reference's.
func TestPumpStopPerDelivery(t *testing.T) {
	run := func(mk func(*sim.Scheduler, Bandwidth, time.Duration, int, LossModel, Receiver) testLink) []string {
		sch := sim.NewScheduler(1)
		var log []string
		sink := ReceiverFunc(func(s *packet.Segment) {
			log = append(log, fmt.Sprintf("deliver %d at %v", s.Seq, sch.Now()))
			sch.Stop()
		})
		l := mk(sch, 0, time.Millisecond, 0, nil, sink)
		for i := 1; i <= 3; i++ {
			s := seg(100)
			s.Seq = uint32(i)
			l.Send(s)
		}
		for r := 1; r <= 4; r++ {
			sch.Run()
			log = append(log, fmt.Sprintf("run %d ends at %v", r, sch.Now()))
		}
		return log
	}
	ref, got := run(newRefLink), run(newPumpLink)
	if !slices.Equal(ref, got) {
		t.Fatalf("Stop per delivery:\n ref  %q\n lane %q", ref, got)
	}
}
