package netem

import (
	"time"

	"repro/internal/sim"
)

// Tier is what a fleet chooses for one edge tier of a Tree: the rate
// of its downstream (data-direction) links and their queue policy.
// The rest of every tier is fixed by the tier constants below.
type Tier struct {
	Down Bandwidth
	// AQM selects the queue policy on this tier's downstream links
	// (the data direction, where queues build). Zero = drop-tail.
	AQM AqmConfig
}

// The fixed part of a Tree's tiers: upstream (ACK-direction) rates,
// one-way propagation delays per direction and queue bytes per link
// per direction. No tier link drops at random; a fleet that wants
// loss or extra delay applies a Dynamics timeline (a loss or delay
// step at 0 s) to its aggregation links.
const (
	accessUp    = 1 * Mbps
	accessDelay = 2 * time.Millisecond
	accessQueue = 64 << 10

	aggUp    = 200 * Mbps
	aggDelay = 1 * time.Millisecond
	aggQueue = 512 << 10

	coreUp    = 2 * Gbps
	coreDelay = 5 * time.Millisecond
	coreQueue = 4 << 20
)

// TreeConfig sizes a Tree. The zero value yields a plausible ISP-ish
// shape: 6/1 Mbps access links, 32 clients per 200 Mbps aggregation
// link, and a 2 Gbps core uplink — enough headroom that burstiness,
// not starvation, is what aggregation links exhibit.
type TreeConfig struct {
	Access Tier
	Agg    Tier
	// Core sets the core uplink's downstream rate; its queue is
	// always drop-tail.
	Core struct{ Down Bandwidth }
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
	if c.Agg.Down == 0 {
		c.Agg.Down = 200 * Mbps
	}
	if c.Core.Down == 0 {
		c.Core.Down = 2 * Gbps
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
	t.CoreDown = NewLink(sch, cfg.Core.Down, coreDelay, coreQueue, nil, nil)
	t.CoreUp = NewLink(sch, coreUp, coreDelay, coreQueue, nil, server)
	t.AggDown = NewLink(sch, cfg.Agg.Down, aggDelay, aggQueue, nil, t.sw)
	t.AggDown.SetAQM(cfg.Agg.AQM.New(aggQueue))
	t.AggUp = NewLink(sch, aggUp, aggDelay, aggQueue, nil, t.CoreUp)
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
		down := NewLink(t.sch, t.cfg.Access.Down, accessDelay, accessQueue, nil, client)
		down.SetAQM(t.cfg.Access.AQM.New(accessQueue))
		up := NewLink(t.sch, accessUp, accessDelay, accessQueue, nil, t.AggUp)
		t.AccessDown = append(t.AccessDown, down)
		t.AccessUp = append(t.AccessUp, up)
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
	t.CoreDown.Reset(cfg.Core.Down, coreDelay, coreQueue, nil, nil)
	t.CoreUp.Reset(coreUp, coreDelay, coreQueue, nil, nil)
	t.AggDown.Reset(cfg.Agg.Down, aggDelay, aggQueue, nil, cfg.Agg.AQM.New(aggQueue))
	t.AggUp.Reset(aggUp, aggDelay, aggQueue, nil, nil)
	for j := range t.AccessDown {
		t.AccessDown[j].Reset(cfg.Access.Down, accessDelay, accessQueue, nil, cfg.Access.AQM.New(accessQueue))
		t.AccessUp[j].Reset(accessUp, accessDelay, accessQueue, nil, nil)
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
