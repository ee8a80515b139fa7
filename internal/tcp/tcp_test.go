package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// pair wires two hosts over a duplex path with the given profile.
type pair struct {
	sch            *sim.Scheduler
	client, server *Host
	path           *netem.Path
}

func newPair(seed int64, p netem.Profile) *pair {
	sch := sim.NewScheduler(seed)
	client := NewHost(sch, 10, 0, 0, 1)
	server := NewHost(sch, 203, 0, 113, 10)
	path := netem.NewPath(sch, p, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	return &pair{sch: sch, client: client, server: server, path: path}
}

func noLossProfile() netem.Profile {
	return netem.Profile{Name: "test", Down: 10 * netem.Mbps, Up: 10 * netem.Mbps, RTT: 40 * time.Millisecond}
}

func TestHandshake(t *testing.T) {
	p := newPair(1, noLossProfile())
	serverConnected, clientConnected := false, false
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { serverConnected = true }})
	})
	c := p.client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnConnected: func() { clientConnected = true }})
	p.sch.RunUntil(time.Second)
	if !clientConnected || !serverConnected {
		t.Fatalf("handshake incomplete: client=%v server=%v", clientConnected, serverConnected)
	}
	if c.ConnState() != StateEstablished {
		t.Fatalf("client state %v", c.ConnState())
	}
	if c.HandshakeRTT < 40*time.Millisecond || c.HandshakeRTT > 45*time.Millisecond {
		t.Fatalf("handshake RTT %v, want ~40ms", c.HandshakeRTT)
	}
}

func TestBulkTransferIntegrity(t *testing.T) {
	p := newPair(2, noLossProfile())
	// Pattern data so corruption/reordering is detectable.
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got bytes.Buffer
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.Write(payload) }})
	})
	c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnReadable: func() {
		buf := make([]byte, 64<<10)
		for {
			n := c.Read(buf)
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
	}})
	p.sch.RunUntil(30 * time.Second)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
}

func TestTransferWithLossIntegrity(t *testing.T) {
	p := newPair(3, noLossProfile())
	p.path.Down.SetLoss(netem.RandomLoss{Rate: 0.02})
	payload := make([]byte, 500<<10)
	for i := range payload {
		payload[i] = byte(i >> 3)
	}
	var got bytes.Buffer
	var srv *Conn
	p.server.Listen(80, Config{}, func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnConnected: func() { c.Write(payload) }})
	})
	c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnReadable: func() {
		buf := make([]byte, 64<<10)
		for {
			n := c.Read(buf)
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
	}})
	p.sch.RunUntil(120 * time.Second)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("lossy transfer corrupted: got %d want %d", got.Len(), len(payload))
	}
	if srv.Stats.Retransmits == 0 {
		t.Fatal("2% loss must cause retransmissions")
	}
}

func TestZeroFillBulk(t *testing.T) {
	p := newPair(4, noLossProfile())
	const total = 5 << 20
	received := 0
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnReadable: func() { received += c.Discard(1 << 30) }})
	p.sch.RunUntil(60 * time.Second)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestThroughputTracksBottleneck(t *testing.T) {
	prof := noLossProfile() // 10 Mbps
	p := newPair(5, prof)
	const total = 4 << 20
	received := 0
	var done time.Duration
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 2 << 20}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnReadable: func() {
		received += c.Discard(1 << 30)
		if received == total {
			done = p.sch.Now()
		}
	}})
	p.sch.RunUntil(2 * time.Minute)
	if received != total {
		t.Fatalf("received %d/%d", received, total)
	}
	rate := float64(total) * 8 / done.Seconds()
	if rate < 7e6 || rate > 10.5e6 {
		t.Fatalf("goodput %.1f Mbps, want near 10 Mbps bottleneck", rate/1e6)
	}
}

func TestFlowControlZeroWindowAndPull(t *testing.T) {
	// Server writes 1 MB; client has a 128 KB buffer and reads nothing
	// at first: the window must close and transfer stall. Then the
	// client pulls 64 KB chunks on a timer; the stall must clear each
	// time — this is the IE/HTML5 pacing mechanism from the paper.
	p := newPair(6, noLossProfile())
	const total = 1 << 20
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 128 << 10}, packet.EP(203, 0, 113, 10, 80))
	read := 0
	p.sch.RunUntil(3 * time.Second)
	if c.Buffered() == 0 {
		t.Fatal("receive buffer empty; expected it to fill")
	}
	if c.Buffered() > 128<<10 {
		t.Fatalf("receive buffer %d exceeds capacity", c.Buffered())
	}
	stalledAt := c.Stats.BytesReceived
	p.sch.RunUntil(6 * time.Second)
	if c.Stats.BytesReceived != stalledAt {
		t.Fatalf("transfer did not stall on closed window: %d -> %d", stalledAt, c.Stats.BytesReceived)
	}
	// Pull in 64 KB steps every 100 ms.
	var pull func()
	pull = func() {
		read += c.Discard(64 << 10)
		if read < total {
			p.sch.After(100*time.Millisecond, pull)
		}
	}
	p.sch.After(0, pull)
	p.sch.RunUntil(30 * time.Second)
	if read != total {
		t.Fatalf("pulled %d, want %d", read, total)
	}
}

func TestPersistProbeSurvivesLostWindowUpdate(t *testing.T) {
	p := newPair(7, noLossProfile())
	const total = 512 << 10
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 64 << 10}, packet.EP(203, 0, 113, 10, 80))
	p.sch.RunUntil(2 * time.Second) // window now closed
	// Simulate losing every upstream packet briefly (the window-update
	// ACK dies), then heal the path. Persist probes must revive the
	// transfer.
	p.path.Up.SetLoss(netem.RandomLoss{Rate: 1.0})
	c.Discard(1 << 30) // window update is sent into the black hole
	p.sch.RunUntil(2500 * time.Millisecond)
	p.path.Up.SetLoss(netem.NoLoss{})
	got := 0
	c.SetCallbacks(Callbacks{OnReadable: func() { got += c.Discard(1 << 30) }})
	p.sch.RunUntil(60 * time.Second)
	if c.Stats.BytesReceived != total {
		t.Fatalf("received %d, want %d (persist probe must recover)", c.Stats.BytesReceived, total)
	}
}

func TestFastRetransmitOnIsolatedLoss(t *testing.T) {
	p := newPair(8, noLossProfile())
	// Drop exactly one mid-stream data packet.
	drop := &dropNth{n: 100}
	p.path.Down.SetLoss(drop)
	const total = 1 << 20
	var srv *Conn
	p.server.Listen(80, Config{}, func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 2 << 20}, packet.EP(203, 0, 113, 10, 80))
	got := 0
	c.SetCallbacks(Callbacks{OnReadable: func() { got += c.Discard(1 << 30) }})
	p.sch.RunUntil(time.Minute)
	if got != total {
		t.Fatalf("received %d/%d", got, total)
	}
	if srv.Stats.FastRetransmit == 0 {
		t.Fatal("isolated loss should trigger fast retransmit")
	}
	if srv.Stats.Timeouts != 0 {
		t.Fatalf("isolated mid-stream loss recovered via %d timeouts; want fast retransmit only", srv.Stats.Timeouts)
	}
}

// dropNth drops exactly the nth packet offered.
type dropNth struct {
	n     int
	count int
}

// Drop implements netem.LossModel.
func (d *dropNth) Drop(*rand.Rand) bool {
	d.count++
	return d.count == d.n
}

func TestRTORecoversTailLoss(t *testing.T) {
	p := newPair(9, noLossProfile())
	// Kill the path entirely mid-transfer, then restore: only RTO can
	// recover (no dup acks arrive).
	const total = 256 << 10
	var srv *Conn
	p.server.Listen(80, Config{}, func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(total) }})
	})
	c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	got := 0
	c.SetCallbacks(Callbacks{OnReadable: func() { got += c.Discard(1 << 30) }})
	p.sch.After(200*time.Millisecond, func() { p.path.Down.SetLoss(netem.RandomLoss{Rate: 1.0}) })
	p.sch.After(1200*time.Millisecond, func() { p.path.Down.SetLoss(netem.NoLoss{}) })
	p.sch.RunUntil(2 * time.Minute)
	if got != total {
		t.Fatalf("received %d/%d after blackout", got, total)
	}
	if srv.Stats.Timeouts == 0 {
		t.Fatal("blackout must be recovered by RTO")
	}
}

func TestCloseHandshake(t *testing.T) {
	p := newPair(10, noLossProfile())
	serverSawClose, clientClosed := false, false
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{
			OnConnected:   func() { c.Write([]byte("bye")); c.Close() },
			OnRemoteClose: func() { serverSawClose = true },
		})
	})
	c := p.client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{
		OnRemoteClose: func() {
			buf := make([]byte, 16)
			if n := c.Read(buf); string(buf[:n]) != "bye" {
				t.Errorf("data before FIN = %q", buf[:n])
			}
			c.Close()
		},
		OnClosed: func() { clientClosed = true },
	})
	p.sch.RunUntil(5 * time.Second)
	if !clientClosed {
		t.Fatal("client FIN never acked")
	}
	if !serverSawClose {
		t.Fatal("server did not see client FIN")
	}
	if p.client.ConnCount() != 0 {
		t.Fatalf("client still tracks %d conns", p.client.ConnCount())
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(11, noLossProfile())
	var srv *Conn
	serverClosed := false
	p.server.Listen(80, Config{}, func(c *Conn) {
		srv = c
		c.SetCallbacks(Callbacks{
			OnConnected: func() { c.WriteZero(1 << 20) },
			OnClosed:    func() { serverClosed = true },
		})
	})
	c := p.client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	p.sch.RunUntil(500 * time.Millisecond)
	c.Abort()
	p.sch.RunUntil(2 * time.Second)
	if !serverClosed {
		t.Fatal("server not torn down by RST")
	}
	_ = srv
	if p.client.ConnCount() != 0 || p.server.ConnCount() != 0 {
		t.Fatal("connections leaked after abort")
	}
}

func TestHandshakeSYNLossRetry(t *testing.T) {
	p := newPair(12, noLossProfile())
	// Lose the first SYN.
	first := true
	p.path.Up.SetLoss(lossFunc(func() bool {
		if first {
			first = false
			return true
		}
		return false
	}))
	connected := false
	p.server.Listen(80, Config{}, func(c *Conn) {})
	c := p.client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	c.SetCallbacks(Callbacks{OnConnected: func() { connected = true }})
	p.sch.RunUntil(5 * time.Second)
	if !connected {
		t.Fatal("SYN retransmission did not complete handshake")
	}
	if c.Stats.Retransmits == 0 {
		t.Fatal("expected SYN retransmit counted")
	}
}

type lossFunc func() bool

// Drop implements netem.LossModel.
func (f lossFunc) Drop(*rand.Rand) bool { return f() }

// TestDelayedAckReducesAckCount pins the receiver's one ACK policy:
// it ACKs every second data segment, every PSH segment at once, and a
// lone segment when the delayed-ACK timer fires. The client reads
// nothing (its buffer holds the whole transfer), so no window update
// adds an ACK.
func TestDelayedAckReducesAckCount(t *testing.T) {
	p := newPair(13, noLossProfile())
	var data, psh int
	p.path.Down.AddTap(tapFn(func(_ time.Duration, seg *packet.Segment) {
		if seg.Len() > 0 {
			data++
			if seg.HasFlag(packet.FlagPSH) {
				psh++
			}
		}
	}))
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(512 << 10) }})
	})
	p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	p.sch.RunUntil(30 * time.Second)
	acks := p.path.Up.Sent - 2 // the SYN and the handshake's final ACK
	if data < 300 || psh == 0 {
		t.Fatalf("transfer too small to test: %d data segments, %d with PSH", data, psh)
	}
	if acks < data/2 || acks > data/2+psh {
		t.Fatalf("%d data segments (%d with PSH) drew %d ACKs, want %d..%d",
			data, psh, acks, data/2, data/2+psh)
	}
}

func TestIdleResetAblation(t *testing.T) {
	// After a long idle period, a sender with IdleReset must restart
	// from the initial window (ack-clocked ramp) while the default
	// sender blasts the whole block — the paper's Figure 9 contrast.
	burstAfterIdle := func(idleReset bool) int {
		p := newPair(14, noLossProfile())
		var srv *Conn
		p.server.Listen(80, Config{IdleReset: idleReset}, func(c *Conn) {
			srv = c
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(256 << 10) }})
		})
		c := p.client.Dial(Config{RecvBuf: 4 << 20}, packet.EP(203, 0, 113, 10, 80))
		c.SetCallbacks(Callbacks{OnReadable: func() { c.Discard(1 << 30) }})
		p.sch.RunUntil(5 * time.Second)
		// Idle 10 s, then send another block and count bytes put on
		// the wire in the first RTT.
		p.sch.RunUntil(15 * time.Second)
		before := srv.Stats.BytesSent
		srv.WriteZero(256 << 10)
		p.sch.RunUntil(15*time.Second + 40*time.Millisecond) // one RTT
		return int(srv.Stats.BytesSent - before)
	}
	withReset := burstAfterIdle(true)
	without := burstAfterIdle(false)
	if withReset >= without {
		t.Fatalf("first-RTT burst with idle reset (%d) must be smaller than without (%d)", withReset, without)
	}
	if without < 100<<10 {
		t.Fatalf("without idle reset the burst should approach the block size, got %d", without)
	}
}

func TestStateString(t *testing.T) {
	for s := StateSynSent; s <= StateClosed; s++ {
		if s.String() == "UNKNOWN" {
			t.Fatalf("state %d has no name", s)
		}
	}
	if State(99).String() != "UNKNOWN" {
		t.Fatal("unknown state must stringify to UNKNOWN")
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (int, time.Duration) {
		p := newPair(77, netem.Residence)
		p.server.Listen(80, Config{}, func(c *Conn) {
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(2 << 20) }})
		})
		c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
		done := time.Duration(0)
		got := 0
		c.SetCallbacks(Callbacks{OnReadable: func() {
			got += c.Discard(1 << 30)
			if got == 2<<20 {
				done = p.sch.Now()
			}
		}})
		p.sch.RunUntil(2 * time.Minute)
		return got, done
	}
	g1, d1 := run()
	g2, d2 := run()
	if g1 != g2 || d1 != d2 {
		t.Fatalf("same-seed runs diverged: (%d,%v) vs (%d,%v)", g1, d1, g2, d2)
	}
}

func BenchmarkBulkTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := newPair(1, noLossProfile())
		p.server.Listen(80, Config{}, func(c *Conn) {
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(1 << 20) }})
		})
		c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
		c.SetCallbacks(Callbacks{OnReadable: func() { c.Discard(1 << 30) }})
		p.sch.RunUntil(time.Minute)
	}
}
