package tcp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The matrix suite runs the invariant laws across the full cross
// product of congestion controller × queue policy × loss model — the
// combinations fleet specs can now express — so no (CC, AQM) pairing
// can quietly violate conservation, completion or window sanity. Like
// the invariant suite it runs across seeds and both memory regimes;
// CI runs it under -race.

// matrixLoss names a loss regime and how to install it.
type matrixLoss struct {
	name string
	loss float64               // independent random loss (0 = none)
	ge   *netem.GilbertElliott // bursty model, overrides loss when set
}

func matrixLosses() []matrixLoss {
	return []matrixLoss{
		{name: "noloss"},
		{name: "random2pct", loss: 0.02},
		{name: "gilbert", ge: &netem.GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.3, PGood: 0.0005, PBad: 0.3}},
	}
}

// matrixRED is the cell's RED policy, tuned low enough to engage at
// the suite's transfer size: it starts marking at an 8 KiB average
// backlog, with a faster-than-default EWMA so the short transfer
// reaches it. CoDel keeps its defaults: 8 KiB at 8 Mbps already
// serializes for 8 ms > its 5 ms target.
func matrixRED() *netem.RED {
	return &netem.RED{MinTh: 8 << 10, MaxTh: 32 << 10, MaxP: 0.1, Weight: 0.05}
}

// matrixTransfer is runTransfer generalized over the congestion
// controller, queue policy and loss model. The queue is uncapped so
// every drop is attributable: the loss model or the AQM, never the
// hard cap.
func matrixTransfer(t *testing.T, seed int64, cc, aqm string, ml matrixLoss, total int, pooled bool, horizon time.Duration) (*invariantRun, *netem.Path) {
	t.Helper()
	sch := sim.NewScheduler(seed)
	client := NewHost(sch, 10, 0, 0, 1)
	server := NewHost(sch, 203, 0, 113, 10)
	prof := netem.Profile{Name: "matrix", Down: 8 * netem.Mbps, Up: 2 * netem.Mbps,
		RTT: 40 * time.Millisecond, Loss: ml.loss, UpLoss: -1, AQM: netem.AqmConfig{Kind: aqm}}
	path := netem.NewPath(sch, prof, client, server)
	if aqm == netem.AqmRED {
		path.Down.SetAQM(matrixRED())
		path.Up.SetAQM(matrixRED())
	}
	if ml.ge != nil {
		path.Down.SetLoss(ml.ge)
	}
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	if pooled {
		pool := &packet.Pool{}
		client.SetSegmentPool(pool)
		server.SetSegmentPool(pool)
	}

	run := &invariantRun{sch: sch, total: total}
	server.Listen(80, Config{CC: cc}, func(c *Conn) {
		run.snd = c
		c.SetCallbacks(Callbacks{OnConnected: func() {
			c.WriteZero(total)
			c.Close()
		}})
	})
	cl := client.Dial(Config{CC: cc}, packet.EP(203, 0, 113, 10, 80))
	run.rcv = cl
	cl.SetCallbacks(Callbacks{OnReadable: func() {
		got := int64(cl.Discard(1 << 20))
		run.delivered += got
		if run.delivered > int64(total) {
			t.Fatalf("receiver drained %d bytes, more than the %d ever written", run.delivered, total)
		}
		if run.delivered != cl.Stats.BytesReceived-int64(cl.Buffered()) {
			t.Fatalf("drained %d != accepted %d - buffered %d: receive offsets not monotone/consistent",
				run.delivered, cl.Stats.BytesReceived, cl.Buffered())
		}
	}})
	sch.RunUntil(horizon)
	if run.snd == nil {
		t.Fatal("connection never established")
	}
	return run, path
}

// TestInvariantsMatrix: 3 controllers × 3 queue policies × 3 loss
// models × seeds × pooling. Every cell must conserve bytes, deliver
// the whole stream inside the horizon and end with a sane window; the
// clean drop-tail cells must additionally be exactly retransmission
// free, and drop accounting must attribute AQM drops correctly.
func TestInvariantsMatrix(t *testing.T) {
	// Big enough that the sender's window overshoots the 40 KB BDP and
	// stands a queue — the regime where the policies differ.
	const total = 512 << 10
	const horizon = 120 * time.Second
	for _, cc := range CCKinds() {
		for _, aqm := range netem.AqmKinds() {
			for _, ml := range matrixLosses() {
				for seed := int64(1); seed <= 2; seed++ {
					pooled := seed%2 == 0
					name := fmt.Sprintf("%s/%s/%s/seed=%d", cc, aqm, ml.name, seed)
					t.Run(name, func(t *testing.T) {
						r, path := matrixTransfer(t, seed, cc, aqm, ml, total, pooled, horizon)
						checkConservation(t, r)
						if r.delivered != total {
							t.Fatalf("stream incomplete: %d of %d bytes (sender %+v)",
								r.delivered, total, r.snd.Stats)
						}
						// Window sanity: never below one MSS, and the Conn
						// must actually be running the requested controller.
						if got := r.snd.CC().Name(); got != cc {
							t.Fatalf("sender runs %q, cell asked for %q", got, cc)
						}
						if w := r.snd.Cwnd(); w < mss {
							t.Fatalf("cwnd %d below one MSS at the horizon", w)
						}
						// Drop attribution.
						if aqm == netem.AqmDropTail {
							if path.Down.AqmDrops != 0 || path.Up.AqmDrops != 0 {
								t.Fatalf("drop-tail link counted AQM drops: down %d up %d",
									path.Down.AqmDrops, path.Up.AqmDrops)
							}
						}
						if path.Down.AqmDrops > path.Down.Dropped {
							t.Fatalf("AqmDrops %d exceeds Dropped %d", path.Down.AqmDrops, path.Down.Dropped)
						}
						if ml.name == "noloss" {
							if aqm == netem.AqmDropTail {
								// The only fully clean pipe in the matrix:
								// nothing may be retransmitted on it.
								s := r.snd.Stats
								if s.Retransmits != 0 || s.Timeouts != 0 || s.FastRetransmit != 0 {
									t.Fatalf("retransmissions on a clean drop-tail pipe: %+v", s)
								}
								if s.BytesSent != int64(total) {
									t.Fatalf("sender transmitted %d payload bytes for a %d-byte stream",
										s.BytesSent, total)
								}
							} else if path.Down.Dropped != path.Down.AqmDrops {
								// No loss model and no hard cap: every drop
								// must be the AQM's.
								t.Fatalf("unattributed drops: Dropped %d != AqmDrops %d",
									path.Down.Dropped, path.Down.AqmDrops)
							}
						}
					})
				}
			}
		}
	}
}

// TestMatrixAqmEngages pins that the matrix is not vacuous: on the
// strained no-loss cell both RED and CoDel actually drop packets for
// the loss-based controllers — the queue the clean cell builds is
// exactly what AQM exists to cut — so the matrix genuinely exercises
// the recovery × policy interactions.
func TestMatrixAqmEngages(t *testing.T) {
	for _, aqm := range []string{netem.AqmRED, netem.AqmCoDel} {
		t.Run(aqm, func(t *testing.T) {
			_, path := matrixTransfer(t, 1, CCReno, aqm, matrixLoss{name: "noloss"},
				512<<10, false, 120*time.Second)
			if path.Down.AqmDrops == 0 {
				t.Fatalf("%s never dropped on the strained clean cell", aqm)
			}
		})
	}
}
