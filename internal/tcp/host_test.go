package tcp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

var testServerEP = packet.EP(203, 0, 113, 10, 80)

// dataFrom builds the server's next in-order data segment for client
// conn c, n bytes of fill at stream offset off.
func dataFrom(c *Conn, off int64, n int, fill byte) *packet.Segment {
	return &packet.Segment{
		Flow:    packet.Flow{Src: c.peer, Dst: c.local},
		Seq:     c.irs + 1 + uint32(off),
		Ack:     c.iss + 1,
		Flags:   packet.FlagACK,
		Window:  c.sndWnd,
		Payload: bytes.Repeat([]byte{fill}, n),
	}
}

// TestHostDemuxInterleaved: two conns of one client host to one server
// receive segments interleaved A, B, A, B, so the remembered conn is
// the wrong one on every arrival. Each conn must get exactly its own
// bytes.
func TestHostDemuxInterleaved(t *testing.T) {
	p := newPair(1, noLossProfile())
	p.server.Listen(80, Config{}, nil)
	a := p.client.Dial(Config{}, testServerEP)
	b := p.client.Dial(Config{}, testServerEP)
	p.sch.RunUntil(time.Second)
	if a.ConnState() != StateEstablished || b.ConnState() != StateEstablished {
		t.Fatalf("handshakes incomplete: %v, %v", a.ConnState(), b.ConnState())
	}
	const n, rounds = 100, 4
	for i := range rounds {
		p.client.Deliver(dataFrom(a, int64(i*n), n, 'a'))
		p.client.Deliver(dataFrom(b, int64(i*n), n, 'b'))
	}
	for _, c := range []struct {
		conn *Conn
		fill byte
	}{{a, 'a'}, {b, 'b'}} {
		got := make([]byte, 2*n*rounds)
		got = got[:c.conn.Read(got)]
		if want := bytes.Repeat([]byte{c.fill}, n*rounds); !bytes.Equal(got, want) {
			t.Fatalf("conn %c read %q, want %d bytes of %c", c.fill, got, len(want), c.fill)
		}
	}
}

// TestHostResetForgetsLastConn: after Reset, a non-SYN segment of a
// flow from before the reset must reach no conn, even though the conn
// struct it last went to has been recycled, on the re-addressed host,
// into the conn Dial returns next.
func TestHostResetForgetsLastConn(t *testing.T) {
	p := newPair(1, noLossProfile())
	p.server.Listen(80, Config{}, nil)
	old := p.client.Dial(Config{}, testServerEP)
	p.sch.RunUntil(time.Second) // the SYN-ACK goes to old through the map
	if old.ConnState() != StateEstablished {
		t.Fatalf("handshake incomplete: %v", old.ConnState())
	}
	stale := packet.Flow{Src: old.peer, Dst: old.local}

	p.client.Reset(10, 0, 0, 9)
	recycled := p.client.Dial(Config{}, testServerEP)
	if recycled != old {
		t.Fatal("the host did not recycle its old conn")
	}
	p.client.Deliver(&packet.Segment{Flow: stale, Flags: packet.FlagRST | packet.FlagACK})
	if recycled.ConnState() != StateSynSent {
		t.Fatalf("a segment of a pre-Reset flow reached the recycled conn: state %v", recycled.ConnState())
	}
}

// TestHostRecyclesOwnConns: Reset scrubs a host's conns in place, and
// the next Dial hands the same struct out again with its arrays' capacity
// kept, while another host on the path never gets it.
func TestHostRecyclesOwnConns(t *testing.T) {
	p := newPair(1, noLossProfile())
	p.server.Listen(80, Config{}, nil)
	c := p.client.Dial(Config{}, testServerEP)
	p.sch.RunUntil(time.Second)
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	p.sch.RunUntil(2 * time.Second)
	if c.ConnState() != StateEstablished || c.sndNxt == 0 {
		t.Fatalf("request not sent: state %v, sndNxt %d", c.ConnState(), c.sndNxt)
	}
	for i := range 5 { // past a 100-byte hole: each waits for reassembly
		p.client.Deliver(dataFrom(c, int64(100+i*100), 100, 'x'))
	}
	if c.ooo.len() != 5 {
		t.Fatalf("reassembly queue holds %d segments, want 5", c.ooo.len())
	}
	grown := cap(c.ooo.entries)

	p.client.Reset(10, 0, 0, 1)
	scrubbed := *c
	scrubbed.sndBuf.chunks, scrubbed.rcvBuf.chunks, scrubbed.ooo.entries = nil, nil, nil
	if !reflect.ValueOf(scrubbed).IsZero() {
		t.Fatalf("Reset left state in the conn beyond its slice capacities: %+v", scrubbed)
	}
	if n := len(c.sndBuf.chunks) + len(c.rcvBuf.chunks) + len(c.ooo.entries); n != 0 {
		t.Fatalf("Reset left %d slots in use", n)
	}
	for _, e := range c.ooo.entries[:cap(c.ooo.entries)] {
		if e != (oooEntry{}) {
			t.Fatalf("Reset left a reassembly entry in the array: %+v", e)
		}
	}

	other := NewHost(p.sch, 10, 0, 0, 2)
	other.SetLink(p.path.Up)
	if other.Dial(Config{}, testServerEP) == c {
		t.Fatal("another host got this host's conn")
	}
	again := p.client.Dial(Config{}, testServerEP)
	if again != c {
		t.Fatal("Dial after Reset made a new conn instead of recycling the host's own")
	}
	if got := cap(again.ooo.entries); got != grown {
		t.Fatalf("recycled conn's reassembly capacity %d, want %d", got, grown)
	}
}

// serverWithConns returns a server host holding n established conns,
// one per client address, and for each a pure ACK that changes nothing
// in its conn, so delivering it again and again is a steady state.
func serverWithConns(b *testing.B, n int) (*Host, []*packet.Segment) {
	sch := sim.NewScheduler(1)
	h := NewHost(sch, 203, 0, 113, 10)
	h.SetLink(netem.NewLink(sch, 10*netem.Mbps, time.Millisecond, 1<<20, nil, netem.ReceiverFunc(func(*packet.Segment) {})))
	var conns []*Conn
	h.Listen(80, Config{}, func(c *Conn) { conns = append(conns, c) })
	acks := make([]*packet.Segment, n)
	for i := range n {
		client := packet.EP(10, byte(i>>8), byte(i), 1, 40000)
		h.Deliver(&packet.Segment{Flow: packet.Flow{Src: client, Dst: testServerEP}, Seq: 5000, Flags: packet.FlagSYN, Window: 65535})
		c := conns[i]
		acks[i] = &packet.Segment{Flow: packet.Flow{Src: client, Dst: testServerEP}, Seq: c.irs + 1, Ack: c.iss + 1, Flags: packet.FlagACK, Window: 65535}
		h.Deliver(acks[i])
		if c.ConnState() != StateEstablished {
			b.Fatalf("conn %d not established: %v", i, c.ConnState())
		}
	}
	return h, acks
}

// BenchmarkHostDeliver measures Host.Deliver's demultiplexing: one op
// is one pure ACK delivered to a server host. With one conn every ACK
// goes to the conn the last one went to; with 32 the ACKs arrive round
// robin, so every one misses the remembered conn and hashes its flow.
func BenchmarkHostDeliver(b *testing.B) {
	for _, n := range []int{1, 32} {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) {
			h, acks := serverWithConns(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				h.Deliver(acks[i%n])
			}
		})
	}
}

// TestHostReleaseZeroesConns: after a transfer between hosts sharing
// a segment pool, Release leaves every conn each host created equal to
// Conn{}, buffers and controller included, and the host remembers none
// of them.
func TestHostReleaseZeroesConns(t *testing.T) {
	p := newPair(3, noLossProfile())
	segs := &packet.Pool{}
	for _, h := range []*Host{p.client, p.server} {
		h.SetSegmentPool(segs)
	}
	const total = 256 << 10
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() {
			c.WriteZero(total)
			c.Close()
		}})
	})
	var dialed []*Conn
	for range 2 {
		c := p.client.Dial(Config{}, testServerEP)
		c.SetCallbacks(Callbacks{OnReadable: func() { c.Discard(total) }})
		dialed = append(dialed, c)
	}
	p.sch.RunUntil(5 * time.Second)
	for i, c := range dialed {
		if c.Stats.BytesReceived != total {
			t.Fatalf("conn %d received %d of %d bytes", i, c.Stats.BytesReceived, total)
		}
	}
	for _, h := range []*Host{p.client, p.server} {
		created := append([]*Conn(nil), h.created...)
		if len(created) != 2 {
			t.Fatalf("%v created %d conns, want 2", h, len(created))
		}
		h.Release()
		for i, c := range created {
			if !reflect.ValueOf(*c).IsZero() {
				t.Errorf("%v: conn %d is not zero after Release", h, i)
			}
		}
		if len(h.conns) != 0 || len(h.created) != 0 || h.last != nil {
			t.Errorf("%v still remembers conns: map %d, created %d, last %p", h, len(h.conns), len(h.created), h.last)
		}
	}
}
