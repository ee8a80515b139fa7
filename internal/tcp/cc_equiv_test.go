package tcp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The equivalence suite pins the CongestionControl extraction against
// the congestion logic the Conn carried inline before the split,
// preserved below as an executable reference (the same pinning style
// pump_test.go uses for the event-elided link). Both controllers run
// the full stack over seeded loss, tight queues, bursty loss and
// mid-flight reordering; the receiver-observed wire behaviour — every
// admitted segment's timestamp, sequence, ack, flags, window and
// length, both directions — must be bit-identical. This is the test
// that guarantees every pre-split golden artifact still means what it
// meant.

// inlineReno is the pre-split congestion logic transcribed
// operation-for-operation from the old Conn methods (growCwnd,
// enterRecovery, the processAck recovery branches, onRTO, the idle
// restart) into the hook interface. It is deliberately a second,
// independent transcription — not a call into the production reno —
// so a regression in either copy breaks the comparison.
type inlineReno struct {
	cwnd       int
	ssthresh   int
	cwndAcc    int
	dupAcks    int
	inRecovery bool
	recoverPt  int64
}

// The reference keeps its own copy of the segment size and the
// 4-segment initial window rather than reading the stack's constants.
const (
	refMSS      = 1460
	refInitCwnd = 4 * refMSS
)

func (r *inlineReno) Init(time.Duration) {
	*r = inlineReno{cwnd: refInitCwnd, ssthresh: 1 << 30}
}

func (r *inlineReno) Cwnd() int        { return r.cwnd }
func (r *inlineReno) InRecovery() bool { return r.inRecovery }
func (r *inlineReno) Name() string     { return "inline-reno" }

func (r *inlineReno) OnAck(ev AckEvent) CcAction {
	if r.inRecovery {
		if ev.AckOff >= r.recoverPt {
			// Full ack: leave recovery, deflate.
			r.inRecovery = false
			r.cwnd = r.ssthresh
			r.dupAcks = 0
			return CcNone
		}
		// Partial ack: retransmit the next hole (NewReno).
		r.cwnd = max(r.cwnd-ev.Acked+refMSS, refMSS)
		return CcRetransmit
	}
	r.dupAcks = 0
	r.growCwnd(ev.Acked)
	return CcNone
}

func (r *inlineReno) growCwnd(acked int) {
	if r.cwnd < r.ssthresh {
		r.cwnd += min(acked, refMSS) // slow start
		return
	}
	// Congestion avoidance: one MSS per cwnd of acked bytes.
	r.cwndAcc += acked
	if r.cwndAcc >= r.cwnd {
		r.cwndAcc -= r.cwnd
		r.cwnd += refMSS
	}
}

func (r *inlineReno) OnDupAck(ev AckEvent) CcAction {
	r.dupAcks++
	if r.inRecovery {
		r.cwnd += refMSS // inflation
	} else if r.dupAcks == 3 {
		// enterRecovery, verbatim.
		flight := ev.Flight
		r.ssthresh = max(flight/2, 2*refMSS)
		r.cwnd = r.ssthresh + 3*refMSS
		r.inRecovery = true
		r.recoverPt = ev.SndNxt
		return CcRetransmit
	}
	return CcNone
}

func (r *inlineReno) OnRTO(ev AckEvent) {
	flight := ev.Flight
	r.ssthresh = max(flight/2, 2*refMSS)
	r.cwnd = refMSS
	r.cwndAcc = 0
	r.dupAcks = 0
	r.inRecovery = false
}

func (r *inlineReno) OnIdle(time.Duration) {
	r.cwnd = min(r.cwnd, refInitCwnd)
	r.cwndAcc = 0
}

// wireTuple is one admitted segment as the network saw it.
type wireTuple struct {
	dir   byte // 'v' down, '^' up
	at    time.Duration
	seq   uint32
	ack   uint32
	flags uint8
	wnd   int
	n     int
}

// wireTap appends tuples; scalar fields are copied at capture time so
// segment pooling cannot alias records.
type wireTap struct {
	dir byte
	out *[]wireTuple
}

func (w *wireTap) Capture(at time.Duration, seg *packet.Segment) {
	*w.out = append(*w.out, wireTuple{
		dir: w.dir, at: at, seq: seg.Seq, ack: seg.Ack,
		flags: seg.Flags, wnd: seg.Window, n: seg.Len(),
	})
}

// equivCase shapes one comparison scenario.
type equivCase struct {
	name  string
	prof  netem.Profile
	ge    *netem.GilbertElliott
	total int
	// reorderAt, when set, steps the downstream propagation delay from
	// 30 ms to 5 ms mid-flight, overtaking in-flight packets — genuine
	// reordering on an otherwise loss-free pipe.
	reorderAt time.Duration
}

func equivCases() []equivCase {
	return []equivCase{
		{name: "clean", total: 256 << 10,
			prof: netem.Profile{Down: 16 * netem.Mbps, Up: 4 * netem.Mbps, RTT: 50 * time.Millisecond, UpLoss: -1}},
		{name: "random3pct", total: 96 << 10,
			prof: netem.Profile{Down: 8 * netem.Mbps, Up: 2 * netem.Mbps, RTT: 60 * time.Millisecond, Loss: 0.03}},
		{name: "tightqueue", total: 128 << 10,
			prof: netem.Profile{Down: 8 * netem.Mbps, Up: 2 * netem.Mbps, RTT: 40 * time.Millisecond, Queue: 10 << 10, UpLoss: -1}},
		{name: "bursty", total: 96 << 10,
			prof: netem.Profile{Down: 8 * netem.Mbps, Up: 2 * netem.Mbps, RTT: 60 * time.Millisecond, UpLoss: -1},
			ge:   &netem.GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.3, PGood: 0.0005, PBad: 0.3}},
		{name: "reorder", total: 128 << 10,
			prof:      netem.Profile{Down: 8 * netem.Mbps, Up: 2 * netem.Mbps, RTT: 60 * time.Millisecond, UpLoss: -1},
			reorderAt: 200 * time.Millisecond},
	}
}

// equivTransfer runs one download over the case's network and returns
// the full wire trace plus the sender's final counters. useRef swaps
// both endpoints onto the inline reference controller.
func equivTransfer(seed int64, ec equivCase, useRef bool) ([]wireTuple, Stats) {
	sch := sim.NewScheduler(seed)
	client := NewHost(sch, 10, 0, 0, 1)
	server := NewHost(sch, 203, 0, 113, 10)
	path := netem.NewPath(sch, ec.prof, client, server)
	if ec.ge != nil {
		path.Down.SetLoss(ec.ge)
	}
	if ec.reorderAt > 0 {
		path.Down.SetDelay(30 * time.Millisecond)
		sch.At(ec.reorderAt, func() { path.Down.SetDelay(5 * time.Millisecond) })
	}
	client.SetLink(path.Up)
	server.SetLink(path.Down)

	var trace []wireTuple
	path.AddTaps(&wireTap{dir: 'v', out: &trace}, &wireTap{dir: '^', out: &trace})

	var snd *Conn
	server.Listen(80, Config{}, func(c *Conn) {
		snd = c
		if useRef {
			c.SetCongestionControl(&inlineReno{})
		}
		c.SetCallbacks(Callbacks{OnConnected: func() {
			c.WriteZero(ec.total)
			c.Close()
		}})
	})
	cl := client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	if useRef {
		cl.SetCongestionControl(&inlineReno{})
	}
	cl.SetCallbacks(Callbacks{OnReadable: func() { cl.Discard(1 << 20) }})
	sch.RunUntil(120 * time.Second)
	if snd == nil {
		return trace, Stats{}
	}
	return trace, snd.Stats
}

// diffTraces fails the test at the first diverging tuple.
func diffTraces(t *testing.T, got, ref []wireTuple) {
	t.Helper()
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("wire divergence at packet %d:\nextracted: %+v\ninline:    %+v", i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("trace lengths differ: extracted %d packets, inline reference %d", len(got), len(ref))
	}
}

// TestCcEquivalence: the extracted Reno and the inline reference must
// produce bit-identical wire traces and counters on every scenario and
// seed.
func TestCcEquivalence(t *testing.T) {
	for _, ec := range equivCases() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", ec.name, seed), func(t *testing.T) {
				got, gotStats := equivTransfer(seed, ec, false)
				ref, refStats := equivTransfer(seed, ec, true)
				if len(got) == 0 {
					t.Fatal("empty wire trace")
				}
				diffTraces(t, got, ref)
				if gotStats != refStats {
					t.Fatalf("sender counters diverge:\nextracted: %+v\ninline:    %+v", gotStats, refStats)
				}
			})
		}
	}
}

// TestCcEquivalenceExercisesRecovery guards the suite against
// vacuousness: across its scenarios the comparison must actually pass
// through fast retransmit, RTO and dup-ack handling — a trace that
// never recovers from loss would prove nothing about the recovery
// paths.
func TestCcEquivalenceExercisesRecovery(t *testing.T) {
	var agg Stats
	for _, ec := range equivCases() {
		for seed := int64(1); seed <= 3; seed++ {
			_, s := equivTransfer(seed, ec, false)
			agg.Retransmits += s.Retransmits
			agg.Timeouts += s.Timeouts
			agg.FastRetransmit += s.FastRetransmit
			agg.DupAcksSeen += s.DupAcksSeen
		}
	}
	if agg.FastRetransmit == 0 || agg.Timeouts == 0 || agg.DupAcksSeen == 0 {
		t.Fatalf("equivalence scenarios never exercised recovery: %+v", agg)
	}
}

// FuzzCcEquivalence drives the same comparison over fuzzer-chosen
// seeds, loss rates, queue caps and reorder timing. Any divergence
// between the extracted controller and the inline reference — on any
// network the fuzzer can build — is a crash-grade finding.
func FuzzCcEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), false)
	f.Add(int64(2), uint16(30), uint16(0), false)
	f.Add(int64(3), uint16(0), uint16(10), true)
	f.Add(int64(4), uint16(55), uint16(24), false)
	f.Add(int64(5), uint16(12), uint16(6), true)
	f.Fuzz(func(t *testing.T, seed int64, loss, queueKiB uint16, reorder bool) {
		ec := equivCase{
			name:  "fuzz",
			total: 64 << 10,
			prof: netem.Profile{Down: 8 * netem.Mbps, Up: 2 * netem.Mbps,
				RTT:  50 * time.Millisecond,
				Loss: float64(loss%80) / 1000, // 0 .. 7.9%
				// 8..71 KiB queue; 0 stays uncapped.
				Queue:  int(queueKiB%64+8) << 10,
				UpLoss: -1,
			},
		}
		if queueKiB == 0 {
			ec.prof.Queue = 0
		}
		if reorder {
			ec.reorderAt = 150 * time.Millisecond
		}
		got, gotStats := equivTransfer(seed, ec, false)
		ref, refStats := equivTransfer(seed, ec, true)
		diffTraces(t, got, ref)
		if gotStats != refStats {
			t.Fatalf("sender counters diverge:\nextracted: %+v\ninline:    %+v", gotStats, refStats)
		}
	})
}
