package tcp

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Host owns one side of a path: it demultiplexes inbound segments to
// connections and provides Listen/Dial. A Host implements
// netem.Receiver and transmits on the egress link set via SetLink.
type Host struct {
	sch       *sim.Scheduler
	addr      [4]byte
	out       *netem.Link
	conns     map[packet.Flow]*Conn
	last      *Conn // the conn the previous inbound segment went to
	listeners map[uint16]listener
	nextPort  uint16
	nextISS   uint32

	// Segment pooling (every World attaches one; see SetSegmentPool).
	// retained marks the in-delivery segment as held beyond Deliver
	// (out-of-order queue).
	pool     *packet.Pool
	retained bool

	// acceptCfg, when set, rewrites the listener config per accepted
	// connection (see SetAcceptConfig).
	acceptCfg func(peer packet.Endpoint, cfg Config) Config

	// created holds every conn the host has made, in creation order;
	// the first used of them have been handed out since the last Reset
	// (see takeConn).
	created []*Conn
	used    int
}

type listener struct {
	cfg    Config
	accept func(*Conn)
}

// NewHost creates a host with the given IPv4 address.
func NewHost(sch *sim.Scheduler, a, b, c, d byte) *Host {
	return &Host{
		sch:       sch,
		addr:      [4]byte{a, b, c, d},
		conns:     make(map[packet.Flow]*Conn),
		listeners: make(map[uint16]listener),
		nextPort:  40000,
		nextISS:   10000,
	}
}

// Addr returns the host address as an endpoint with port 0.
func (h *Host) Addr() packet.Endpoint { return packet.Endpoint{Addr: h.addr} }

// SetLink wires the egress link (toward the peer side of the path).
func (h *Host) SetLink(l *netem.Link) { h.out = l }

// SetSegmentPool enables segment recycling: outbound segments are
// allocated from p and inbound ones returned to it once consumed.
// Taps on the path must not retain segment pointers past the capture
// call (trace.Sink's contract; a trace.Trace recording keeps copies).
// Both ends of a path should share one pool; the simulation is
// single-threaded, so the pool needs no locking.
func (h *Host) SetSegmentPool(p *packet.Pool) { h.pool = p }

// newSeg allocates an outbound segment, reusing a pooled one when
// recycling is enabled. All fields are zero.
func (h *Host) newSeg() *packet.Segment {
	if h.pool != nil {
		return h.pool.Get()
	}
	return &packet.Segment{}
}

// putSeg recycles a fully consumed inbound segment.
func (h *Host) putSeg(s *packet.Segment) {
	if h.pool != nil {
		h.pool.Put(s)
	}
}

// takeConn returns a blank Conn: the next one this host made before
// its last Reset, in creation order, or a new one. A host recycles only
// its own conns, so each keeps the arrays its own traffic grew: a
// client's reassembly queue, a server's send buffer.
func (h *Host) takeConn() *Conn {
	if h.used == len(h.created) {
		h.created = append(h.created, &Conn{})
	}
	c := h.created[h.used]
	h.used++
	return c
}

// Reset returns the host to the state NewHost produces with the given
// address, scrubbing every conn handed out since the last Reset for
// takeConn to hand out again. Listeners, the accept hook, the segment
// pool and the egress link survive — they are per-world wiring,
// installed once. The scheduler must be Reset in the same pass so no
// connection timer survives into the next run.
func (h *Host) Reset(a, b, c, d byte) {
	h.addr = [4]byte{a, b, c, d}
	clear(h.conns)
	h.last = nil
	for _, cn := range h.created[:h.used] {
		cn.scrub()
	}
	h.used = 0
	h.nextPort = 40000
	h.nextISS = 10000
	h.retained = false
}

// scrub zeroes every field of c but the capacities of its send,
// receive and reassembly arrays. Segments parked in the reassembly
// queue are dropped; the packet pool that owns them reclaims them
// wholesale on its own Reset.
func (c *Conn) scrub() {
	snd, rcv, ooo := c.sndBuf.chunks, c.rcvBuf.chunks, c.ooo.entries
	clear(snd)
	clear(rcv)
	clear(ooo)
	*c = Conn{}
	c.sndBuf.chunks, c.rcvBuf.chunks, c.ooo.entries = snd[:0], rcv[:0], ooo[:0]
}

// Release zeroes every conn the host has made, buffers and controller
// included, and forgets them all, so an application that outlives the
// run holds only empty Conns, which reach neither the host, its
// scheduler nor its segment pool. The host must not be used again.
func (h *Host) Release() {
	for _, c := range h.created {
		*c = Conn{}
	}
	h.created, h.used = nil, 0
	clear(h.conns)
	h.last = nil
}

// Scheduler exposes the event loop for applications built on the host.
func (h *Host) Scheduler() *sim.Scheduler { return h.sch }

func (h *Host) send(seg *packet.Segment) {
	if h.out == nil {
		panic("tcp: host has no egress link")
	}
	h.out.Send(seg)
}

// ConnCount returns the number of live (not closed) connections.
func (h *Host) ConnCount() int {
	n := 0
	for _, c := range h.conns {
		if c.state != StateClosed {
			n++
		}
	}
	return n
}

// SetAcceptConfig installs a hook that rewrites the listener's Config
// for each accepted connection, keyed by the connecting peer. It is
// how a fleet serves different congestion controllers to different
// clients from one listener (the peer address encodes the client
// index). The hook runs before the Conn is created, so every field —
// including CC — takes effect from the SYN-ACK on.
func (h *Host) SetAcceptConfig(hook func(peer packet.Endpoint, cfg Config) Config) {
	h.acceptCfg = hook
}

// Listen registers an accept callback for a local port. The callback
// runs when a SYN arrives, before the handshake completes, so the
// application can install Callbacks in time for OnConnected.
func (h *Host) Listen(port uint16, cfg Config, accept func(*Conn)) {
	h.listeners[port] = listener{cfg: cfg, accept: accept}
}

// Dial opens a client connection to remote and sends the SYN. The
// returned Conn is in SYN-SENT; install callbacks immediately.
func (h *Host) Dial(cfg Config, remote packet.Endpoint) *Conn {
	local := packet.Endpoint{Addr: h.addr, Port: h.allocPort()}
	c := newConn(h, cfg, local, remote)
	c.iss = h.iss()
	c.state = StateSynSent
	h.conns[packet.Flow{Src: local, Dst: remote}] = c
	h.last = c // a wrapped port may have replaced the remembered conn
	c.sendSYN()
	return c
}

func (h *Host) allocPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort < 40000 {
		h.nextPort = 40000
	}
	return p
}

func (h *Host) iss() uint32 {
	h.nextISS += 64019 // arbitrary odd stride keeps ISS values distinct
	return h.nextISS
}

// Deliver implements netem.Receiver: demultiplex to an existing
// connection, or to a listener for new SYNs. With a segment pool
// attached, the segment is recycled afterwards unless the connection
// parked it in its out-of-order queue.
func (h *Host) Deliver(seg *packet.Segment) {
	h.retained = false
	h.dispatch(seg)
	if h.pool != nil && !h.retained {
		h.pool.Put(seg)
	}
}

func (h *Host) dispatch(seg *packet.Segment) {
	// A client host's segments arrive in runs per connection, so check
	// the last one's endpoints before hashing the flow. A fleet cell's
	// server host, where many clients' ACKs interleave, mostly misses
	// and pays one compare and one store.
	if c := h.last; c != nil && c.local == seg.Dst && c.peer == seg.Src {
		c.deliver(seg)
		return
	}
	key := seg.Flow.Reverse()
	if c, ok := h.conns[key]; ok {
		h.last = c
		c.deliver(seg)
		return
	}
	if seg.HasFlag(packet.FlagSYN) && !seg.HasFlag(packet.FlagACK) {
		l, ok := h.listeners[seg.Dst.Port]
		if !ok {
			return // no RST machinery needed for the simulations
		}
		cfg := l.cfg
		if h.acceptCfg != nil {
			cfg = h.acceptCfg(seg.Src, cfg)
		}
		c := newConn(h, cfg, seg.Dst, seg.Src)
		c.iss = h.iss()
		c.irs = seg.Seq
		c.sndWnd = seg.Window
		c.state = StateSynReceived
		c.synSentAt = h.sch.Now()
		h.conns[key] = c
		if l.accept != nil {
			l.accept(c)
		}
		c.sendSYNACK()
	}
}

// String aids debugging.
func (h *Host) String() string {
	return fmt.Sprintf("host %d.%d.%d.%d (%d conns)", h.addr[0], h.addr[1], h.addr[2], h.addr[3], len(h.conns))
}
