package tcp

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Callbacks notify the application of connection events. All callbacks
// run on the scheduler goroutine; nil callbacks are skipped.
type Callbacks struct {
	// OnConnected fires once when the handshake completes.
	OnConnected func()
	// OnReadable fires whenever new in-order bytes become readable.
	OnReadable func()
	// OnAcked fires when previously written bytes are acknowledged,
	// with the newly acknowledged count.
	OnAcked func(n int)
	// OnRemoteClose fires when the peer's FIN is received (all data
	// before it has been delivered).
	OnRemoteClose func()
	// OnClosed fires when the connection fully closes (our FIN acked,
	// or reset).
	OnClosed func()
}

// Conn is one endpoint of a simulated TCP connection.
type Conn struct {
	host  *Host
	cfg   Config
	cb    Callbacks
	local packet.Endpoint
	peer  packet.Endpoint
	state State

	// Send state. Stream offsets are int64 from 0; the wire sequence
	// of offset x is iss+1+x.
	iss     uint32
	sndUna  int64 // lowest unacknowledged stream offset
	sndNxt  int64 // next stream offset to send
	maxSent int64 // high-water mark of transmitted offsets (for RTO rollback)
	sndWnd  int   // peer-advertised window in bytes
	sndBuf  sendBuffer
	finAt   int64 // stream offset of FIN, -1 if not closing
	finSent bool

	// Congestion control. All window state lives in the controller;
	// the Conn only queries Cwnd and fires the hooks.
	cc         CongestionControl
	lastSendAt time.Duration

	// RTT estimation (RFC 6298). One outstanding sample (Karn).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoBackoff   int
	rttSampleOff int64 // stream offset whose ack completes the sample; -1 idle
	rttSampleAt  time.Duration
	rtoTimer     sim.Timer
	persistTimer sim.Timer
	synTimer     sim.Timer

	// Receive state.
	irs       uint32
	rcvNxt    int64 // next expected stream offset from peer
	rcvBuf    recvBuffer
	ooo       oooQueue
	lastAdvW  int
	ackTimer  sim.Timer
	unacked   int // segments received since last ACK sent
	remoteFin bool

	// HandshakeRTT is the SYN -> SYN-ACK (or SYN -> ACK) time.
	HandshakeRTT time.Duration
	synSentAt    time.Duration

	Stats Stats
}

// ConnState returns the current lifecycle state.
func (c *Conn) ConnState() State { return c.state }

// SetCallbacks installs the application callbacks.
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }

func newConn(h *Host, cfg Config, local, peer packet.Endpoint) *Conn {
	cfg = cfg.withDefaults()
	c := h.takeConn()
	c.host = h
	c.cfg = cfg
	c.local = local
	c.peer = peer
	c.sndWnd = mss      // until the peer advertises
	c.rto = time.Second // RFC 6298 initial
	c.rttSampleOff = -1
	c.finAt = -1
	c.lastAdvW = cfg.RecvBuf
	c.cc = newCongestionControl(cfg)
	c.cc.Init(h.sch.Now())
	return c
}

// Cwnd returns the controller's current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cc.Cwnd() }

// CC returns the connection's congestion controller.
func (c *Conn) CC() CongestionControl { return c.cc }

// SetCongestionControl replaces the congestion controller. It must be
// called before any data flows (i.e. right after Dial or inside a
// listener's accept callback); the controller is re-initialized.
// Tests use it to inject reference or instrumented controllers.
func (c *Conn) SetCongestionControl(cc CongestionControl) {
	cc.Init(c.host.sch.Now())
	c.cc = cc
}

// ccEvent assembles the hook payload from current transport state.
func (c *Conn) ccEvent(acked int, ackOff int64) AckEvent {
	return AckEvent{
		Now:    c.host.sch.Now(),
		Acked:  acked,
		AckOff: ackOff,
		SndNxt: c.sndNxt,
		Flight: int(c.sndNxt - c.sndUna),
		SRTT:   c.srtt,
	}
}

// ---- Application interface ----

// Write appends data to the send stream. The slice is not copied; the
// caller must not mutate it afterwards.
func (c *Conn) Write(data []byte) {
	if c.state == StateClosed || c.finAt >= 0 {
		return
	}
	c.sndBuf.Append(data)
	c.trySend()
}

// WriteZero appends n zero bytes (bulk media padding).
func (c *Conn) WriteZero(n int) {
	if c.state == StateClosed || c.finAt >= 0 || n <= 0 {
		return
	}
	c.sndBuf.AppendZero(n)
	c.trySend()
}

// Buffered returns the number of readable in-order bytes.
func (c *Conn) Buffered() int { return c.rcvBuf.Len() }

// Unsent returns bytes written but not yet transmitted once.
func (c *Conn) Unsent() int64 { return c.sndBuf.Unsent(c.sndNxt) }

// Read copies up to len(p) readable bytes into p, opening the
// advertised window.
func (c *Conn) Read(p []byte) int {
	n := c.rcvBuf.Read(p)
	c.maybeWindowUpdate()
	return n
}

// Discard consumes up to n readable bytes without copying, returning
// the count consumed. This is the bulk-read path used by players.
func (c *Conn) Discard(n int) int {
	got := c.rcvBuf.Discard(n)
	c.maybeWindowUpdate()
	return got
}

// Peek copies readable bytes without consuming them.
func (c *Conn) Peek(p []byte) int { return c.rcvBuf.Peek(p) }

// Close half-closes: a FIN is queued after all written data.
func (c *Conn) Close() {
	if c.state == StateClosed || c.finAt >= 0 {
		return
	}
	c.finAt = c.sndBuf.Len()
	c.trySend()
}

// Abort sends RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	seg := c.mkSegment(packet.FlagRST|packet.FlagACK, c.sndNxt, nil, 0)
	c.host.send(seg)
	c.teardown()
}

func (c *Conn) teardown() {
	c.state = StateClosed
	c.stopTimer(&c.rtoTimer)
	c.stopTimer(&c.persistTimer)
	c.stopTimer(&c.ackTimer)
	c.stopTimer(&c.synTimer)
	// The connection stays registered with the host so late segments
	// (a retransmitted FIN in particular) still reach the TIME-WAIT
	// responder in deliver.
	if c.cb.OnClosed != nil {
		c.cb.OnClosed()
	}
}

func (c *Conn) stopTimer(t *sim.Timer) {
	t.Stop()
	*t = sim.Timer{}
}

// Timer op codes for Conn's sim.Task implementation.
const (
	connOpRTO int32 = iota
	connOpPersist
	connOpSYN
	connOpDelAck
)

// RunTask implements sim.Task: all four connection timers dispatch
// through the Conn itself, so re-arming a timer never allocates a
// closure — this matters because the RTO is restarted on every ACK.
func (c *Conn) RunTask(op int32) {
	switch op {
	case connOpRTO:
		c.onRTO()
	case connOpPersist:
		c.onPersist()
	case connOpSYN:
		c.onSYNTimer()
	case connOpDelAck:
		c.ackTimer = sim.Timer{}
		c.sendAck()
	}
}

// ---- Segment construction ----

func (c *Conn) seqOf(off int64) uint32 { return c.iss + 1 + uint32(off) }

func (c *Conn) ackOf() uint32 {
	a := c.irs + 1 + uint32(c.rcvNxt)
	if c.remoteFin {
		a++ // FIN consumed one sequence number
	}
	return a
}

func (c *Conn) advWindow() int {
	w := c.cfg.RecvBuf - c.rcvBuf.Len()
	if w < 0 {
		w = 0
	}
	// Quantize to the wire encoding so the sender's view matches what
	// a captured trace shows.
	w = (w >> packet.WindowScale) << packet.WindowScale
	return w
}

// mkSegment builds a segment at stream offset off carrying n payload
// bytes, of which known holds the leading ones; the rest are zeros.
func (c *Conn) mkSegment(flags uint8, off int64, known []byte, n int) *packet.Segment {
	w := c.advWindow()
	c.lastAdvW = w
	seg := c.host.newSeg()
	seg.Flow = packet.Flow{Src: c.local, Dst: c.peer}
	seg.Seq = c.seqOf(off)
	seg.Ack = c.ackOf()
	seg.Flags = flags
	seg.Window = w
	seg.Payload = known
	seg.PayloadLen = n
	return seg
}

// ---- Connection establishment ----

func (c *Conn) sendSYN() {
	c.synSentAt = c.host.sch.Now()
	seg := c.host.newSeg()
	seg.Flow = packet.Flow{Src: c.local, Dst: c.peer}
	seg.Seq = c.iss
	seg.Flags = packet.FlagSYN
	seg.Window = c.advWindow()
	c.host.send(seg)
	c.armSYNTimer()
}

func (c *Conn) sendSYNACK() {
	seg := c.host.newSeg()
	seg.Flow = packet.Flow{Src: c.local, Dst: c.peer}
	seg.Seq = c.iss
	seg.Ack = c.irs + 1
	seg.Flags = packet.FlagSYN | packet.FlagACK
	seg.Window = c.advWindow()
	c.host.send(seg)
	c.armSYNTimer()
}

func (c *Conn) armSYNTimer() {
	c.synTimer = c.host.sch.RearmAfterTask(c.synTimer, c.rto, c, connOpSYN)
}

func (c *Conn) onSYNTimer() {
	if c.state == StateSynSent {
		c.rto = min(c.rto*2, maxRTO)
		c.Stats.Retransmits++
		c.sendSYN()
	} else if c.state == StateSynReceived {
		c.rto = min(c.rto*2, maxRTO)
		c.Stats.Retransmits++
		c.sendSYNACK()
	}
}

// ---- Inbound segment processing ----

func (c *Conn) deliver(seg *packet.Segment) {
	if c.state == StateClosed {
		// TIME-WAIT-lite: a FIN from the peer (our final ACK was lost,
		// or we tore down first while the peer's FIN was in flight)
		// deserves one more ACK so the peer can finish too. Register
		// the FIN so ackOf covers its sequence number. Anything else
		// is ignored.
		if seg.HasFlag(packet.FlagFIN) && !seg.HasFlag(packet.FlagRST) {
			if segOff := int64(int32(seg.Seq - (c.irs + 1))); !c.remoteFin && segOff <= c.rcvNxt {
				c.remoteFin = true
				if c.cb.OnRemoteClose != nil {
					c.cb.OnRemoteClose()
				}
			}
			reply := c.host.newSeg()
			reply.Flow = packet.Flow{Src: c.local, Dst: c.peer}
			reply.Seq = c.seqOf(c.sndNxt)
			reply.Ack = c.ackOf()
			reply.Flags = packet.FlagACK
			reply.Window = c.advWindow()
			c.host.send(reply)
		}
		return
	}
	if seg.HasFlag(packet.FlagRST) {
		c.teardown()
		return
	}
	switch c.state {
	case StateSynSent:
		if seg.HasFlag(packet.FlagSYN) && seg.HasFlag(packet.FlagACK) && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.HandshakeRTT = c.host.sch.Now() - c.synSentAt
			c.seedRTT(c.HandshakeRTT)
			c.sndWnd = seg.Window
			c.state = StateEstablished
			c.stopTimer(&c.synTimer)
			c.sendAck() // completes the handshake
			if c.cb.OnConnected != nil {
				c.cb.OnConnected()
			}
			c.trySend()
		}
		return
	case StateSynReceived:
		if seg.HasFlag(packet.FlagSYN) && !seg.HasFlag(packet.FlagACK) {
			// Duplicate SYN: re-answer.
			c.sendSYNACK()
			return
		}
		if seg.HasFlag(packet.FlagACK) && seg.Ack == c.iss+1 {
			c.state = StateEstablished
			c.stopTimer(&c.synTimer)
			c.sndWnd = seg.Window
			c.HandshakeRTT = c.host.sch.Now() - c.synSentAt
			c.seedRTT(c.HandshakeRTT)
			if c.cb.OnConnected != nil {
				c.cb.OnConnected()
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	}

	// Established (or later) processing: ACK side then data side.
	if seg.HasFlag(packet.FlagACK) {
		c.processAck(seg)
	}
	if n := seg.Len(); n > 0 || seg.HasFlag(packet.FlagFIN) {
		c.processData(seg)
	}
	if c.state != StateClosed {
		c.trySend()
	}
}

func (c *Conn) seedRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	c.srtt = rtt
	c.rttvar = rtt / 2
	c.updateRTO()
}

func (c *Conn) sampleRTT(rtt time.Duration) {
	if c.srtt == 0 {
		c.seedRTT(rtt)
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
	c.updateRTO()
}

func (c *Conn) updateRTO() {
	c.rto = c.srtt + max(10*time.Millisecond, 4*c.rttvar)
	c.rto = max(c.rto, minRTO)
	c.rto = min(c.rto, maxRTO)
}

// ackedOffset converts a wire ACK number to a stream offset.
func (c *Conn) ackedOffset(ack uint32) int64 {
	// ack acknowledges everything below iss+1+off (+1 more if our FIN
	// was consumed). Compute off = ack - (iss+1) in sequence space.
	off := int64(int32(ack - (c.iss + 1)))
	// Sessions are far below 2^31 bytes; int32 diff keeps wraparound
	// correct near the ISS.
	return off
}

func (c *Conn) processAck(seg *packet.Segment) {
	ackOff := c.ackedOffset(seg.Ack)
	finConsumed := false
	if c.finSent && ackOff == c.finAt+1 {
		ackOff = c.finAt
		finConsumed = true
	}
	if ackOff > c.maxSent || ackOff < 0 {
		return // nonsense ack
	}
	oldWnd := c.sndWnd
	c.sndWnd = seg.Window
	if c.sndWnd > 0 {
		c.persistTimer.Stop() // keeps the handle for an in-place re-arm
	}

	switch {
	case ackOff > c.sndUna:
		acked := int(ackOff - c.sndUna)
		c.sndUna = ackOff
		if c.sndNxt < c.sndUna {
			// After an RTO rollback, the receiver's out-of-order queue
			// can acknowledge past our send point; jump forward.
			c.sndNxt = c.sndUna
		}
		c.sndBuf.Release(c.sndUna)
		c.Stats.BytesAcked += int64(acked)
		c.rtoBackoff = 0
		// RTT sample (Karn: only if the sampled range was not
		// retransmitted; retransmission clears rttSampleOff).
		if c.rttSampleOff >= 0 && ackOff >= c.rttSampleOff {
			c.sampleRTT(c.host.sch.Now() - c.rttSampleAt)
			c.rttSampleOff = -1
		}
		if c.cc.OnAck(c.ccEvent(acked, ackOff)) == CcRetransmit {
			// Partial ack during recovery: retransmit the next hole
			// (NewReno).
			c.retransmitOne()
		}
		c.restartRTO()
		if c.cb.OnAcked != nil {
			c.cb.OnAcked(acked)
		}
	case ackOff == c.sndUna && c.sndNxt > c.sndUna && seg.Len() == 0 &&
		seg.Window == oldWnd && c.sndWnd > 0:
		// Duplicate ACK: data outstanding, no payload, no window
		// change, window open (zero-window probe replies must not
		// masquerade as loss signals).
		c.Stats.DupAcksSeen++
		if c.cc.OnDupAck(c.ccEvent(0, ackOff)) == CcRetransmit {
			c.Stats.FastRetransmit++
			c.retransmitOne()
			c.restartRTO()
		}
	}
	if finConsumed && c.finSent && c.sndUna == c.finAt && c.state != StateClosed {
		c.teardown()
	}
}

// retransmitOne resends the segment at sndUna.
func (c *Conn) retransmitOne() {
	if c.finSent && c.sndUna == c.finAt && c.sndBuf.Unsent(c.sndUna) == 0 {
		c.transmitFIN()
		return
	}
	n := min(mss, int(c.maxSent-c.sndUna))
	if n <= 0 {
		return
	}
	c.transmitData(c.sndUna, n)
}

// ---- Outbound data path ----

func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateFinWait {
		return
	}
	// RFC 5681 idle restart, when enabled: collapse cwnd after the
	// connection has been idle longer than one RTO. Streaming servers
	// in the paper demonstrably skip this — the Figure 9 ablation.
	if c.cfg.IdleReset && c.sndNxt == c.sndUna && c.lastSendAt > 0 {
		if idle := c.host.sch.Now() - c.lastSendAt; idle > c.rto {
			c.cc.OnIdle(c.host.sch.Now())
		}
	}
	wnd := min(c.cc.Cwnd(), c.sndWnd)
	for {
		flight := int(c.sndNxt - c.sndUna)
		avail := c.sndBuf.Len() - c.sndNxt
		if avail <= 0 {
			break
		}
		room := wnd - flight
		if room <= 0 {
			break
		}
		n := min(mss, int(avail))
		n = min(n, room)
		if n <= 0 {
			break
		}
		c.transmitData(c.sndNxt, n)
		c.sndNxt += int64(n)
	}
	// FIN when everything written has been sent.
	if c.finAt >= 0 && !c.finSent && c.sndNxt == c.finAt && c.sndBuf.Unsent(c.sndNxt) == 0 {
		c.transmitFIN()
		c.finSent = true
		c.state = StateFinWait
		c.restartRTO()
	}
	// Persist: data waiting but window closed.
	if c.sndWnd == 0 && c.sndBuf.Len() > c.sndNxt && !c.persistTimer.Active() {
		c.armPersist()
	}
}

// transmitData sends [off, off+n). Whether it is a retransmission is
// derived from the maxSent high-water mark (an RTO rollback replays
// offsets below it through the normal send path).
func (c *Conn) transmitData(off int64, n int) {
	known, length, ok := c.sndBuf.Slice(off, n)
	if !ok {
		return
	}
	isRetransmit := off < c.maxSent
	flags := packet.FlagACK
	// PSH on what is likely the last segment of an application write.
	if off+int64(n) == c.sndBuf.Len() {
		flags |= packet.FlagPSH
	}
	c.host.send(c.mkSegment(flags, off, known, length))
	c.Stats.SegmentsSent++
	c.Stats.BytesSent += int64(n)
	c.lastSendAt = c.host.sch.Now()
	if end := off + int64(n); end > c.maxSent {
		c.maxSent = end
	}
	if isRetransmit {
		c.Stats.Retransmits++
		if c.rttSampleOff >= 0 && off <= c.rttSampleOff {
			c.rttSampleOff = -1 // Karn: invalidate sample
		}
	} else if c.rttSampleOff < 0 {
		c.rttSampleOff = off + int64(n)
		c.rttSampleAt = c.host.sch.Now()
	}
	if !c.rtoTimer.Active() {
		c.restartRTO()
	}
	// Receiving a piggybacked ACK resets the delayed-ack debt. The
	// stopped timer keeps its handle so the next arm re-arms it in place.
	c.unacked = 0
	c.ackTimer.Stop()
}

func (c *Conn) transmitFIN() {
	seg := c.mkSegment(packet.FlagFIN|packet.FlagACK, c.finAt, nil, 0)
	c.host.send(seg)
	c.Stats.SegmentsSent++
	c.lastSendAt = c.host.sch.Now()
}

// ---- RTO ----

// restartRTO re-arms the RTO, or stops it when nothing is outstanding.
// The handle survives a stop, so the next restart can re-arm the
// queued entry in place (sim.Scheduler.RearmAfterTask).
func (c *Conn) restartRTO() {
	// Outstanding data is anything transmitted beyond the cumulative
	// ack. sndNxt is NOT that test: a go-back-N rollback drags sndNxt
	// to sndUna while retransmissions are in flight, and an ack that
	// jumps past the rolled-back sndNxt clamps them equal again — in
	// both states a lost segment must still fire the timer, or the
	// connection deadlocks with an empty event queue (found by the
	// shuffled property tests).
	if c.maxSent == c.sndUna && !(c.finSent && c.sndUna == c.finAt) {
		c.rtoTimer.Stop() // nothing outstanding
		return
	}
	backoff := c.rto << c.rtoBackoff
	backoff = min(backoff, maxRTO)
	c.rtoTimer = c.host.sch.RearmAfterTask(c.rtoTimer, backoff, c, connOpRTO)
}

func (c *Conn) onRTO() {
	c.rtoTimer = sim.Timer{}
	if c.state == StateClosed {
		return
	}
	c.Stats.Timeouts++
	c.cc.OnRTO(c.ccEvent(0, c.sndUna))
	c.rtoBackoff++
	if c.rtoBackoff > 10 {
		// Give up as a real stack eventually would.
		c.teardown()
		return
	}
	// Go-back-N: replay from the hole. The receiver's out-of-order
	// queue makes its cumulative ACKs jump over whatever already
	// arrived, so only genuinely lost bytes consume round trips —
	// this is what keeps burst loss (slow-start overshoot into a
	// drop-tail queue) from degenerating into one-segment-per-RTO.
	c.sndNxt = c.sndUna
	if c.sndBuf.Unsent(c.sndNxt) > 0 || c.maxSent > c.sndUna {
		c.trySend()
		if c.sndNxt == c.sndUna {
			c.retransmitOne() // window may be closed; force the probe
		}
	} else {
		c.retransmitOne() // FIN-only case
	}
	c.restartRTO()
}

func (c *Conn) armPersist() {
	interval := max(c.rto, time.Second)
	c.persistTimer = c.host.sch.RearmAfterTask(c.persistTimer, interval, c, connOpPersist)
}

func (c *Conn) onPersist() {
	c.persistTimer = sim.Timer{}
	if c.state == StateClosed || c.sndWnd > 0 {
		return
	}
	// Zero-window probe in the classic keepalive style: one
	// already-acknowledged byte at snd.una-1, sent as a zero. The
	// receiver treats it as a duplicate and replies with an ACK
	// carrying its current window, reviving the transfer even when
	// the real window update was lost.
	seg := c.mkSegment(packet.FlagACK, c.sndUna-1, nil, 1)
	c.host.send(seg)
	c.armPersist()
}

// ---- Receive path ----

func (c *Conn) processData(seg *packet.Segment) {
	segOff := int64(int32(seg.Seq - (c.irs + 1)))
	n := seg.Len()
	fin := seg.HasFlag(packet.FlagFIN)
	end := segOff + int64(n)

	switch {
	case end < c.rcvNxt || (end == c.rcvNxt && !fin):
		// Entirely duplicate data (window probes land here too):
		// re-ACK immediately so the peer learns the current window.
		c.sendAck()
	case segOff <= c.rcvNxt:
		// In-order, possibly overlapping the front or exceeding the
		// buffer; trim both ends. Trimmed tail bytes are dropped and
		// will be retransmitted once the window reopens.
		skip := int(c.rcvNxt - segOff)
		space := c.cfg.RecvBuf - c.rcvBuf.Len()
		take := min(n-skip, space)
		if take < 0 {
			take = 0
		}
		c.acceptPayload(seg, skip, take)
		c.rcvNxt += int64(take)
		complete := skip+take == n
		if complete {
			// Drain contiguous out-of-order segments (space was
			// reserved by the advertised window).
			for {
				next, ok := c.ooo.take(c.rcvNxt, c.host)
				if !ok {
					break
				}
				c.acceptPayload(next, 0, next.Len())
				c.rcvNxt += int64(next.Len())
				if next.HasFlag(packet.FlagFIN) {
					fin = true
				}
				c.host.putSeg(next) // drained: only the payload lives on
			}
		}
		if fin && complete && !c.remoteFin {
			c.remoteFin = true
			c.sendAck()
			if c.cb.OnRemoteClose != nil {
				c.cb.OnRemoteClose()
			}
		} else {
			c.scheduleAck(seg)
		}
		if take > 0 && c.cb.OnReadable != nil {
			c.cb.OnReadable()
		}
	default: // segOff > c.rcvNxt
		// Out of order: hold (bounded) and send an immediate dup ACK.
		if c.ooo.len() < oooCap {
			c.ooo.put(segOff, seg, c.host)
			c.host.retained = true // survives Deliver; recycled on drain, purge or replacement
		}
		c.sendAck()
	}
}

// acceptPayload pushes take bytes of the segment payload starting at
// skip into the receive buffer: the known bytes among them, then the
// zeros past the known ones as a run.
func (c *Conn) acceptPayload(seg *packet.Segment, skip, take int) {
	if take <= 0 {
		return
	}
	c.Stats.BytesReceived += int64(take)
	known := max(min(len(seg.Payload)-skip, take), 0)
	if known > 0 {
		c.rcvBuf.Push(seg.Payload[skip : skip+known])
	}
	c.rcvBuf.PushZero(take - known)
}

func (c *Conn) scheduleAck(seg *packet.Segment) {
	if seg.Len() == 0 {
		return
	}
	c.unacked++
	if c.unacked >= 2 || seg.HasFlag(packet.FlagPSH) {
		c.sendAck()
		return
	}
	if !c.ackTimer.Active() {
		c.ackTimer = c.host.sch.RearmAfterTask(c.ackTimer, ackDelay, c, connOpDelAck)
	}
}

func (c *Conn) sendAck() {
	c.unacked = 0
	c.ackTimer.Stop() // keeps the handle for an in-place re-arm
	if c.state == StateClosed {
		return
	}
	seg := c.mkSegment(packet.FlagACK, c.sndNxt, nil, 0)
	c.host.send(seg)
}

// maybeWindowUpdate sends a window-update ACK after application reads,
// following receiver-side SWS avoidance: update when the window grew
// from (near) closed, or by at least half the buffer or 2 MSS.
func (c *Conn) maybeWindowUpdate() {
	if c.state != StateEstablished && c.state != StateFinWait {
		return
	}
	w := c.advWindow()
	grew := w - c.lastAdvW
	if grew <= 0 {
		return
	}
	if c.lastAdvW < mss || grew >= c.cfg.RecvBuf/2 || grew >= 2*mss {
		c.sendAck()
	}
}
