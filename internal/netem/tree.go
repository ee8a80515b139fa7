package netem

import (
	"time"

	"repro/internal/sim"
)

// Tier describes one level of a Tree topology: the rates, one-way
// propagation delay, queue depth and downstream loss its links get.
// Upstream (ACK-direction) links of a tier are loss-free — exactly the
// UpLoss<0 convention profiles use for asymmetric paths — because
// upstream loss was never a reported artefact and fleet runs care
// about downstream aggregation behaviour.
type Tier struct {
	Down, Up Bandwidth
	Delay    time.Duration // one-way propagation per direction
	Queue    int           // bytes of buffering per link per direction
	Loss     float64       // downstream random loss per link
	// AQM selects the queue policy on this tier's downstream links
	// (the data direction, where queues build). Zero = drop-tail.
	AQM AqmConfig
}

// TreeConfig sizes a Tree. The zero value yields a plausible ISP-ish
// shape: 6/1 Mbps access links, 32 clients per 200 Mbps aggregation
// link, and a 2 Gbps core uplink — enough headroom that burstiness,
// not starvation, is what aggregation links exhibit.
type TreeConfig struct {
	Access Tier
	Agg    Tier
	Core   Tier
	// ClientsPerAgg is how many access links share one aggregation
	// link: the number of clients a fleet cell attaches to its Tree.
	// Default 32.
	ClientsPerAgg int
}

// WithDefaults fills zero fields with the default shape.
func (c TreeConfig) WithDefaults() TreeConfig {
	if c.ClientsPerAgg <= 0 {
		c.ClientsPerAgg = 32
	}
	if c.Access.Down == 0 {
		c.Access.Down = 6 * Mbps
	}
	if c.Access.Up == 0 {
		c.Access.Up = 1 * Mbps
	}
	if c.Access.Delay == 0 {
		c.Access.Delay = 2 * time.Millisecond
	}
	if c.Access.Queue == 0 {
		c.Access.Queue = 64 << 10
	}
	if c.Agg.Down == 0 {
		c.Agg.Down = 200 * Mbps
	}
	if c.Agg.Up == 0 {
		c.Agg.Up = 200 * Mbps
	}
	if c.Agg.Delay == 0 {
		c.Agg.Delay = 1 * time.Millisecond
	}
	if c.Agg.Queue == 0 {
		c.Agg.Queue = 512 << 10
	}
	if c.Core.Down == 0 {
		c.Core.Down = 2 * Gbps
	}
	if c.Core.Up == 0 {
		c.Core.Up = 2 * Gbps
	}
	if c.Core.Delay == 0 {
		c.Core.Delay = 5 * time.Millisecond
	}
	if c.Core.Queue == 0 {
		c.Core.Queue = 4 << 20
	}
	return c
}

// Tree is one aggregation group of the fleet topology: every client
// sits behind its own access link, all access links share one
// aggregation link, and the aggregation link hangs off a core uplink
// to the server — the shape at which the paper argues streaming
// strategies matter in aggregate, because many ON-OFF sources
// synchronize into bursts precisely at the aggregation and core
// tiers. A fleet is many Trees, one per cell.
//
// Downstream a packet takes core → aggregation → access(client);
// upstream the reverse. Every hop is an ordinary Link, so capture taps
// (Link.AddTap) and Dynamics timelines attach at any tier.
type Tree struct {
	// CoreDown and CoreUp are the core links (server side).
	CoreDown, CoreUp *Link
	// AggDown and AggUp are the aggregation links every client shares.
	AggDown, AggUp *Link
	// AccessDown and AccessUp are the per-client last-mile links,
	// indexed by attach order. After a Reset the slices may be longer
	// than the attached population — Clients() bounds the live prefix.
	AccessDown, AccessUp []*Link

	cfg      TreeConfig
	sch      *sim.Scheduler
	sw       *Switch // routes client addresses to their access down link
	nClients int     // attached clients; link slots beyond are recycled spares
}

// NewTree builds the core and aggregation tiers; access links are
// created on demand by Attach. The server receives everything sent up
// the core; it must transmit on CoreDown (server.SetLink(t.CoreDown)).
func NewTree(sch *sim.Scheduler, cfg TreeConfig, server Receiver) *Tree {
	cfg = cfg.WithDefaults()
	t := &Tree{cfg: cfg, sch: sch, sw: NewSwitch()}
	t.CoreDown = NewLink(sch, cfg.Core.Down, cfg.Core.Delay, cfg.Core.Queue, RandomLoss{Rate: cfg.Core.Loss}, nil)
	t.CoreDown.SetAQM(cfg.Core.AQM.New(cfg.Core.Queue))
	t.CoreUp = NewLink(sch, cfg.Core.Up, cfg.Core.Delay, cfg.Core.Queue, nil, server)
	t.AggDown = NewLink(sch, cfg.Agg.Down, cfg.Agg.Delay, cfg.Agg.Queue, RandomLoss{Rate: cfg.Agg.Loss}, t.sw)
	t.AggDown.SetAQM(cfg.Agg.AQM.New(cfg.Agg.Queue))
	t.AggUp = NewLink(sch, cfg.Agg.Up, cfg.Agg.Delay, cfg.Agg.Queue, nil, t.CoreUp)
	t.CoreDown.dst = t.AggDown
	return t
}

// Clients returns how many clients have been attached.
func (t *Tree) Clients() int { return t.nClients }

// Attach wires a new client under the tree: it creates (or, after a
// Reset, recycles) the client's access link pair, routes the address
// at the aggregation switch, and returns the access uplink the client
// must transmit on (client.SetLink).
func (t *Tree) Attach(addr [4]byte, client Receiver) *Link {
	j := t.nClients
	if j == len(t.AccessDown) {
		accessDown := NewLink(t.sch, t.cfg.Access.Down, t.cfg.Access.Delay, t.cfg.Access.Queue, RandomLoss{Rate: t.cfg.Access.Loss}, client)
		accessDown.SetAQM(t.cfg.Access.AQM.New(t.cfg.Access.Queue))
		accessUp := NewLink(t.sch, t.cfg.Access.Up, t.cfg.Access.Delay, t.cfg.Access.Queue, nil, t.AggUp)
		t.AccessDown = append(t.AccessDown, accessDown)
		t.AccessUp = append(t.AccessUp, accessUp)
	} else {
		t.AccessDown[j].dst = client
	}
	t.nClients++
	t.sw.Route(addr, t.AccessDown[j])
	return t.AccessUp[j]
}

// Reset returns the tree to its just-built state while keeping every
// link, the switch and ring allocations: the core and aggregation
// pairs and every access link ever created are Reset (fresh AQM
// instances, Dynamics mutations undone, taps and counters cleared),
// routes dropped, and the attach cursor rewound, so the next
// population attaches into recycled link slots. The shared scheduler
// must be Reset in the same pass.
func (t *Tree) Reset() {
	cfg := t.cfg
	t.CoreDown.Reset(cfg.Core.Down, cfg.Core.Delay, cfg.Core.Queue, RandomLoss{Rate: cfg.Core.Loss}, cfg.Core.AQM.New(cfg.Core.Queue))
	t.CoreUp.Reset(cfg.Core.Up, cfg.Core.Delay, cfg.Core.Queue, nil, nil)
	t.AggDown.Reset(cfg.Agg.Down, cfg.Agg.Delay, cfg.Agg.Queue, RandomLoss{Rate: cfg.Agg.Loss}, cfg.Agg.AQM.New(cfg.Agg.Queue))
	t.AggUp.Reset(cfg.Agg.Up, cfg.Agg.Delay, cfg.Agg.Queue, nil, nil)
	for j := range t.AccessDown {
		t.AccessDown[j].Reset(cfg.Access.Down, cfg.Access.Delay, cfg.Access.Queue, RandomLoss{Rate: cfg.Access.Loss}, cfg.Access.AQM.New(cfg.Access.Queue))
		t.AccessUp[j].Reset(cfg.Access.Up, cfg.Access.Delay, cfg.Access.Queue, nil, nil)
	}
	t.sw.Reset()
	t.nClients = 0
}

// Unrouted returns the aggregation switch's unrouted-packet count (0
// in a healthy run).
func (t *Tree) Unrouted() int { return t.sw.Unrouted }

// DroppedAtTier sums drop counters per tier (downstream direction),
// the aggregate loss accounting fleet results report.
func (t *Tree) DroppedAtTier() (core, agg, access int) {
	for _, l := range t.AccessDown[:t.nClients] {
		access += l.Dropped
	}
	return t.CoreDown.Dropped, t.AggDown.Dropped, access
}
