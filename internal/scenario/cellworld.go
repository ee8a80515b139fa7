package scenario

import (
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// cellWorld is the reusable simulation world one runner worker keeps
// across fleet cells: a session.World on a netem.Tree, the fleet's
// taps on it, and every per-cell scratch buffer. Building all of that
// is the dominant steady-state allocation of a fleet run — a
// million-client fleet is ~31k cells, each of which would construct
// (and garbage-collect) its own copy — so instead the world is built
// once and reset at the top of each cell: the World under its Reset
// contract, the tree (links rewind rings, counters and taps and take
// fresh AQM instances), and the aggregation-link series, which zeroes
// in place. A cell's result is not world state: each run builds a
// fresh shell and hands it over. The fresh-vs-recycled equivalence
// tests pin that a recycled cell's bytes equal a fresh world's.
type cellWorld struct {
	f   Fleet // resolved spec, fixed at construction
	per int   // clients per cell (== Tree.ClientsPerAgg)

	world   *session.World
	tree    *netem.Tree
	pattern []PlayerKind

	// Per-cell scratch, reused. The tap structs live here so AddTap
	// boxes a stable pointer instead of allocating a fresh tap per
	// cell; aggBin is the cell's aggregation-link burstiness series.
	starts  []time.Duration
	states  []clientState
	aggBin  *stats.Binned
	aggTap  utilTap
	coreTap utilTap
}

// newCellWorld builds the world's permanent wiring for f (already
// defaulted and validated): the World with the server linked into the
// tree and fixed-size scratch. Nothing here depends on which cell
// runs; all cell-specific state is installed by run.
func newCellWorld(f Fleet) *cellWorld {
	per := f.Tree.ClientsPerAgg
	world := session.NewWorld(f.Seed, f.Mix[0].Player.Service(), f.ServerTCP) // re-seeded per cell by run
	w := &cellWorld{f: f, per: per, world: world}
	w.tree = netem.NewTree(world.Sch, f.Tree, world.Server)
	world.Server.SetLink(w.tree.CoreDown)
	if len(f.CCMix) > 0 {
		// Per-client server-side congestion control: the peer address
		// encodes the global client index, so the assignment is the
		// same no matter which cell, worker or process serves it.
		ccmix := f.CCMix
		world.Server.SetAcceptConfig(func(peer packet.Endpoint, cfg tcp.Config) tcp.Config {
			i, _ := session.ClientIndex(peer.Addr)
			cfg.CC = ccmix[i%len(ccmix)]
			return cfg
		})
	}

	w.pattern = f.pattern()
	w.aggBin = stats.NewBinned(f.UtilBin, f.Duration)
	w.aggTap.bins = make([]*stats.Binned, 0, 2)
	w.coreTap.bins = make([]*stats.Binned, 0, 1)
	w.starts = make([]time.Duration, per)
	w.states = make([]clientState, per)
	return w
}

// run simulates global clients [from, to) — one aggregation group — on
// the recycled world and returns its streaming statistics in a fresh
// shell. The result is the caller's to keep: later cells on this world
// do not touch it.
func (w *cellWorld) run(from, to int) *FleetResult {
	n := to - from
	f := w.f
	world, tree := w.world, w.tree

	// Rewind every recycled layer to its just-built state. On a brand
	// new world these are no-ops on empty structures, so fresh and
	// recycled cells share one code path.
	world.Reset(fleetCellSeed(f.Seed, from))
	tree.Reset()

	res := newFleetResult(f)
	res.Clients = n

	w.coreTap.bins = append(w.coreTap.bins[:0], res.CoreUtil)
	tree.CoreDown.AddTap(&w.coreTap)
	if f.ExtraCoreTap != nil {
		tree.CoreDown.AddTap(f.ExtraCoreTap)
	}

	// Arrival offsets come first in the cell's rng stream.
	w.starts = f.Arrival.TimesInto(w.starts, n, world.Sch.Rand())
	states := w.states[:n]
	for j := 0; j < n; j++ {
		i := from + j
		kind := w.pattern[i%len(w.pattern)]
		host := world.Add(i, f.fleetVideo(i, kind), kind.New(), w.starts[j])
		host.SetLink(tree.Attach(session.ClientAddrOf(i), host))
		states[j] = clientState{start: w.starts[j], first: -1, util: res.AccessUtil}
		tree.AccessDown[j].AddTap(&states[j])
	}
	// The cell is one aggregation group. Its link feeds the burstiness
	// series and the shared tier accumulator, and plays the fleet's
	// dynamics timeline, scheduled ahead of every player start.
	w.aggBin.Reset()
	w.aggTap.bins = append(w.aggTap.bins[:0], res.AggUtil, w.aggBin)
	tree.AggDown.AddTap(&w.aggTap)
	f.Down.Apply(world.Sch, tree.AggDown)
	res.Groups = 1

	world.Run(f.Duration)

	for j := range states {
		c := &states[j]
		p := world.Player(j)
		res.Downloaded += p.Downloaded()
		q := p.QoE(world.Sch.Now())
		res.RebufCount.Add(float64(q.Rebuffers))
		res.RebufSec.Add(q.RebufferTime.Seconds())
		res.SwitchCount.Add(float64(q.Switches))
		res.FetchedMbps.Add(q.MeanFetchedBps() / 1e6)
		for len(res.RungSec) < len(q.RungSec) {
			res.RungSec = append(res.RungSec, 0)
		}
		for r, sec := range q.RungSec {
			res.RungSec[r] += sec
		}
		if c.first < 0 {
			res.StarvedClients++
			res.RateMbps.Add(0)
			if res.Exact != nil {
				res.Exact.RateMbps = append(res.Exact.RateMbps, 0)
			}
			continue
		}
		res.ActiveClients++
		rate := 0.0
		if c.last > c.first {
			rate = float64(c.bytes) * 8 / (c.last - c.first).Seconds() / 1e6
		}
		startup := (c.first - c.start).Seconds()
		res.RateMbps.Add(rate)
		res.StartupSec.Add(startup)
		res.ConcurrencyDeltas.Add(c.first, 1)
		res.ConcurrencyDeltas.Add(c.last, -1)
		if res.Exact != nil {
			res.Exact.RateMbps = append(res.Exact.RateMbps, rate)
			res.Exact.StartupSec = append(res.Exact.StartupSec, startup)
		}
	}
	res.AggBurst.Add(stats.CV(w.aggBin.From(f.Warmup)))
	res.CoreBurst.Add(stats.CV(res.CoreUtil.From(f.Warmup)))

	res.CoreOffered = tree.CoreDown.Sent + tree.CoreDown.Dropped
	core, agg, access := tree.DroppedAtTier()
	res.CoreDropped = core
	res.AggDropped = agg
	res.AccessDropped = access
	res.Unrouted = tree.Unrouted()
	// InducedCoreLoss is derived once, in finalize, from the merged
	// counters — it covers the single-cell case too.
	return res
}
