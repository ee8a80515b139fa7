// Package netem emulates network paths: rate-limited links with
// propagation delay, finite drop-tail queues and stochastic loss, plus
// the four vantage-network profiles used in the paper (Research,
// Residence, Academic, Home). Capture taps observe packets at the
// client side of the path, which is where tcpdump ran in the paper's
// methodology.
package netem

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Bandwidth is a link rate in bits per second.
type Bandwidth float64

const (
	Kbps Bandwidth = 1e3
	Mbps Bandwidth = 1e6
	Gbps Bandwidth = 1e9
)

// TxTime returns the serialization time of n bytes at rate b.
func (b Bandwidth) TxTime(n int) time.Duration {
	if b <= 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / float64(b) * float64(time.Second))
}

// BytesIn returns how many bytes the link can carry in d, rounded
// down to whole bytes. Non-positive durations (and non-positive
// rates) carry nothing.
func (b Bandwidth) BytesIn(d time.Duration) int {
	if b <= 0 || d <= 0 {
		return 0
	}
	return int(math.Floor(float64(b) / 8 * d.Seconds()))
}

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Deliver(seg *packet.Segment)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(*packet.Segment)

// Deliver implements Receiver.
func (f ReceiverFunc) Deliver(seg *packet.Segment) { f(seg) }

// LossModel decides whether a packet entering a link is dropped.
type LossModel interface {
	Drop(rng *rand.Rand) bool
}

// NoLoss never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*rand.Rand) bool { return false }

// RandomLoss drops each packet independently with probability Rate.
type RandomLoss struct{ Rate float64 }

// Drop implements LossModel.
func (l RandomLoss) Drop(rng *rand.Rand) bool {
	return l.Rate > 0 && rng.Float64() < l.Rate
}

// GilbertElliott is a two-state bursty loss model: in the Bad state
// packets drop with PBad, in Good with PGood; state transitions happen
// per packet with the given probabilities. It exercises the paper's
// observation that correlated losses merge adjacent ON-OFF cycles.
type GilbertElliott struct {
	PGoodToBad, PBadToGood float64
	PGood, PBad            float64
	bad                    bool
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.PGood
	if g.bad {
		p = g.PBad
	}
	return p > 0 && rng.Float64() < p
}

// Tap observes packets traversing a link (after the loss decision, so
// dropped packets are not captured — exactly what tcpdump at the client
// would have seen for the downstream direction).
type Tap interface {
	Capture(at time.Duration, seg *packet.Segment)
}

// Link is a unidirectional path segment: a drop-tail queue drained at
// Rate, followed by propagation Delay. The zero value is not usable.
//
// Event cost: a packet schedules no queue event. Queue drains are
// settled lazily against the scheduler's execution point
// (settleDrains), and the link is a scheduler lane (sim.AddLane) whose
// records are its in-flight packets: the scheduler retires the head
// record when its (at, seq) is the global minimum, so each hop is one
// lane retire. Receivers observe the call sequence of a scheme with
// two scheduler entries per packet bit for bit, because Send reserves
// the exact sequence numbers that scheme would have consumed and each
// record carries its delivery's number.
type Link struct {
	sch       *sim.Scheduler
	lane      sim.Lane
	rate      Bandwidth
	delay     time.Duration
	queueCap  int // bytes; 0 means unlimited
	queued    int // bytes accepted minus settled drains
	busyUntil time.Duration
	loss      LossModel
	aqm       AQM // nil = drop-tail
	blocked   bool
	dst       Receiver
	taps      []Tap

	drains  ring[drainRec]  // end-of-serialization edges, monotone (at, seq)
	flights ring[flightRec] // in-flight segments, sorted by (deliverAt, seq)

	// Counters for tests and diagnostics.
	Sent    int
	Dropped int
	Bytes   int64
	// OutageDrops counts packets dropped because the link was blocked
	// by an outage (a subset of Dropped).
	OutageDrops int
	// AqmDrops counts packets the AQM policy dropped before the hard
	// queue cap would have (a subset of Dropped).
	AqmDrops int
}

// drainRec is one pending queue drain: at the reference scheme's event
// (at, seq), size bytes leave the queue. Serialization completes in
// acceptance order, so the drain ring is always FIFO-monotone.
type drainRec struct {
	at   time.Duration
	seq  uint64
	size int32
}

// flightRec is one in-flight segment: deliverable to dst at the
// reference scheme's event (at, seq).
type flightRec struct {
	at  time.Duration
	seq uint64
	seg *packet.Segment
}

// settleDrains applies every drain whose reference event (at, seq)
// orders before the scheduler's current execution point, bringing
// queued up to exactly the value the per-event scheme would show here.
func (l *Link) settleDrains() {
	if l.drains.n == 0 {
		return
	}
	now, cur := l.sch.Now(), l.sch.EventSeq()
	for l.drains.n > 0 {
		d := l.drains.front()
		if d.at < now || (d.at == now && d.seq < cur) {
			l.queued -= int(d.size)
			l.drains.popFront()
			continue
		}
		break
	}
}

// RunTask implements sim.Task: the scheduler reached the head record's
// (at, seq) as its lane. It retires exactly that record, reports the
// lane's next head, and then delivers, so a Send the receiver routes
// back into this link sees the lane as it now stands.
func (l *Link) RunTask(int32) {
	seg := l.flights.front().seg
	l.flights.popFront()
	if l.flights.n == 0 {
		l.sch.ClearLaneHead(l.lane)
	} else {
		l.reportHead()
	}
	l.dst.Deliver(seg)
}

// reportHead tells the scheduler where the lane's head record lies.
func (l *Link) reportHead() {
	f := l.flights.front()
	l.sch.SetLaneHead(l.lane, f.at, f.seq)
}

// addFlight inserts a new in-flight record. Arrivals are FIFO-monotone
// unless SetDelay shrank the propagation delay mid-flight; the
// non-monotone case falls back to a sorted insert (ties go after
// existing records, which carry smaller seqs). A record that becomes
// the head is reported to the scheduler.
func (l *Link) addFlight(f flightRec) {
	if l.flights.n == 0 || !(f.at < l.flights.back().at) {
		l.flights.pushBack(f)
		if l.flights.n == 1 {
			l.reportHead()
		}
		return
	}
	lo, hi := 0, l.flights.n
	for lo < hi {
		mid := (lo + hi) / 2
		if l.flights.at(mid).at <= f.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.flights.insert(lo, f)
	if lo == 0 {
		l.reportHead()
	}
}

// NewLink builds a link delivering to dst.
func NewLink(sch *sim.Scheduler, rate Bandwidth, delay time.Duration, queueBytes int, loss LossModel, dst Receiver) *Link {
	if loss == nil {
		loss = NoLoss{}
	}
	l := &Link{sch: sch, rate: rate, delay: delay, queueCap: queueBytes, loss: loss, dst: dst}
	l.lane = sch.AddLane(l)
	return l
}

// AddTap registers a capture tap on the link.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// Reset returns the link to the state NewLink produces with the given
// parameters, keeping the ring buffers and tap slice backing storage.
// Queued and in-flight packets are discarded, counters zeroed, taps
// removed, and any Dynamics-applied mutations (rate, delay, loss,
// AQM, outage) overwritten, and the link's lane is cleared, so the
// scheduler holds nothing of it. The destination receiver and the lane
// registration are kept — wiring is topology, not state; callers that
// re-wire set the receiver separately.
func (l *Link) Reset(rate Bandwidth, delay time.Duration, queueBytes int, loss LossModel, aqm AQM) {
	if loss == nil {
		loss = NoLoss{}
	}
	l.rate = rate
	l.delay = delay
	l.queueCap = queueBytes
	l.queued = 0
	l.busyUntil = 0
	l.loss = loss
	l.aqm = aqm
	l.blocked = false
	clear(l.taps)
	l.taps = l.taps[:0]
	l.drains.reset()
	l.flights.reset()
	l.sch.ClearLaneHead(l.lane)
	l.Sent = 0
	l.Dropped = 0
	l.Bytes = 0
	l.OutageDrops = 0
	l.AqmDrops = 0
}

// SetLoss replaces the loss model (used by failure-injection tests and
// Dynamics timelines).
func (l *Link) SetLoss(m LossModel) {
	if m == nil {
		m = NoLoss{}
	}
	l.loss = m
}

// Loss returns the current loss model.
func (l *Link) Loss() LossModel { return l.loss }

// SetAQM installs (or, with nil, removes) the queue policy. The
// instance must be private to this link — policies are stateful.
func (l *Link) SetAQM(a AQM) { l.aqm = a }

// AQM returns the current queue policy (nil = drop-tail).
func (l *Link) AQM() AQM { return l.aqm }

// QueueCap returns the hard queue capacity in bytes (0 = uncapped).
func (l *Link) QueueCap() int { return l.queueCap }

// Rate returns the current link rate.
func (l *Link) Rate() Bandwidth { return l.rate }

// SetRate changes the link rate. The change applies to packets
// accepted (Send) after the call: bytes already accepted keep the
// departure times they were committed to at entry, and a later packet
// starts serialization no earlier than that committed backlog's
// completion (busyUntil). This keeps the link's FIFO invariant intact
// across arbitrary rate timelines.
func (l *Link) SetRate(r Bandwidth) { l.rate = r }

// Delay returns the current propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// SetDelay changes the propagation delay for packets sent after the
// call. A decrease can reorder in-flight packets relative to later
// ones — exactly what a route change does on a real path; TCP absorbs
// it as any other reordering.
func (l *Link) SetDelay(d time.Duration) { l.delay = d }

// SetBlocked starts or ends an outage: a blocked link drops every
// packet at entry (counted in Dropped and OutageDrops). In-flight
// packets already serialized are still delivered, matching a cut that
// happens behind the propagation segment.
func (l *Link) SetBlocked(blocked bool) { l.blocked = blocked }

// InFlight returns the number of accepted packets not yet delivered.
func (l *Link) InFlight() int { return l.flights.n }

// QueueDepth returns the bytes currently enqueued or in serialization.
func (l *Link) QueueDepth() int {
	l.settleDrains()
	return l.queued
}

// Send enqueues a segment. Loss and queue overflow silently drop it,
// as a real network would.
func (l *Link) Send(seg *packet.Segment) {
	size := seg.WireLen()
	if l.blocked {
		l.Dropped++
		l.OutageDrops++
		return
	}
	if l.loss.Drop(l.sch.Rand()) {
		l.Dropped++
		return
	}
	l.settleDrains()
	if l.queueCap > 0 && l.queued+size > l.queueCap {
		l.Dropped++
		return
	}
	now := l.sch.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	done := start + l.rate.TxTime(size)
	if l.aqm != nil {
		// The packet's exact queueing delay (wait + serialization) is
		// known at enqueue on a work-conserving FIFO; sojourn-based
		// policies use it directly, no dequeue event needed.
		if !l.aqm.Admit(now, l.queued, size, done-now, l.sch.Rand()) {
			l.Dropped++
			l.AqmDrops++
			return
		}
	}
	for _, t := range l.taps {
		t.Capture(now, seg)
	}
	l.queued += size
	l.Sent++
	l.Bytes += int64(size)
	l.busyUntil = done
	arrive := done + l.delay
	// Reserve the two consecutive sequence numbers the per-event scheme
	// would have consumed (drain before deliver at equal timestamps);
	// the drain settles lazily and the deliver is a lane record.
	drainSeq := l.sch.ReserveSeq()
	deliverSeq := l.sch.ReserveSeq()
	l.drains.pushBack(drainRec{at: done, seq: drainSeq, size: int32(size)})
	l.addFlight(flightRec{at: arrive, seq: deliverSeq, seg: seg})
}

// Deliver implements Receiver by forwarding to Send, so links chain
// into multi-hop paths: a packet leaving one tier's link enters the
// next tier's queue, which is how the Tree topology stacks access,
// aggregation and core hops.
func (l *Link) Deliver(seg *packet.Segment) { l.Send(seg) }

// Path is a bidirectional network between a client and a server,
// composed of one link per direction. By the paper's conventions the
// client is the measurement vantage point.
type Path struct {
	Down *Link // server -> client
	Up   *Link // client -> server
}

// AddTaps attaches one capture tap per direction — the duplex
// attachment point a capture sink fan-out plugs into (each link still
// fans out to any number of taps).
func (p *Path) AddTaps(down, up Tap) {
	p.Down.AddTap(down)
	p.Up.AddTap(up)
}

// Profile describes a vantage network. Rates are the observed
// bottleneck rates from Section 4.2; RTT and loss are chosen to match
// the paper's reported retransmission medians (Residence 1.02%,
// Academic 0.76%, others low).
type Profile struct {
	Name     string
	Down, Up Bandwidth
	RTT      time.Duration
	Loss     float64
	Queue    int // bytes of bottleneck buffering per direction
	// UpLoss is the upstream (ACK-direction) loss rate. Zero keeps the
	// historical default of Loss/10 — ACK loss was not a reported
	// artefact in the paper — and a negative value disables upstream
	// loss entirely, so scenario specs can model asymmetric paths.
	UpLoss float64
	// AQM selects the queue policy on both directions' links (the
	// zero value keeps drop-tail). It only bites where a queue
	// actually builds, so ACK-direction policies are harmless.
	AQM AqmConfig
}

// UpLossRate resolves the effective upstream loss rate.
func (p Profile) UpLossRate() float64 {
	switch {
	case p.UpLoss < 0:
		return 0
	case p.UpLoss > 0:
		return p.UpLoss
	default:
		return p.Loss / 10
	}
}

// The four vantage networks of Section 4.2.
var (
	// Research: 100 Mbps wired behind a 500 Mbps uplink, in France.
	Research = Profile{Name: "Research", Down: 100 * Mbps, Up: 100 * Mbps, RTT: 30 * time.Millisecond, Loss: 0.00005, Queue: 1536 << 10}
	// Residence: 54 Mbps Wi-Fi behind ADSL, 7.7 down / 1.2 up Mbps.
	Residence = Profile{Name: "Residence", Down: 7.7 * Mbps, Up: 1.2 * Mbps, RTT: 60 * time.Millisecond, Loss: 0.004, Queue: 192 << 10}
	// Academic: 100 Mbps wired behind 1 Gbps, in the USA.
	Academic = Profile{Name: "Academic", Down: 100 * Mbps, Up: 100 * Mbps, RTT: 80 * time.Millisecond, Loss: 0.0005, Queue: 1536 << 10}
	// Home: cable modem on Comcast, ~20 down / 3 up Mbps. The deep
	// queue reflects the notoriously bufferbloated 2011 DOCSIS gear.
	Home = Profile{Name: "Home", Down: 20 * Mbps, Up: 3 * Mbps, RTT: 45 * time.Millisecond, Loss: 0.00005, Queue: 3072 << 10}
)

// Profiles lists the vantage networks in the paper's presentation order.
func Profiles() []Profile { return []Profile{Research, Residence, Academic, Home} }

// ProfileByName looks a profile up; ok is false for unknown names.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// NewPath wires a duplex path with the profile's characteristics.
// Propagation delay is split evenly per direction; loss applies to the
// downstream (data) direction and UpLossRate (default Loss/10)
// upstream, since ACK loss was not a reported artefact.
func NewPath(sch *sim.Scheduler, p Profile, client, server Receiver) *Path {
	half := p.RTT / 2
	path := &Path{
		Down: NewLink(sch, p.Down, half, p.Queue, RandomLoss{Rate: p.Loss}, client),
		Up:   NewLink(sch, p.Up, half, p.Queue, RandomLoss{Rate: p.UpLossRate()}, server),
	}
	path.Down.SetAQM(p.AQM.New(p.Queue))
	path.Up.SetAQM(p.AQM.New(p.Queue))
	return path
}
