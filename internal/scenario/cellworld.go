package scenario

import (
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// cellWorld is the reusable simulation world one runner worker keeps
// across fleet cells: the scheduler, the tree topology, the server and
// per-client TCP stacks, the service front end, the packet and
// connection pools, and every per-cell scratch buffer. Building all of
// that is the dominant steady-state allocation of a fleet run — a
// million-client fleet is ~31k cells, each of which used to construct
// (and garbage-collect) its own copy — so instead the world is built
// once and every layer is Reset to its just-built state at the top of
// each cell.
//
// The Reset contract, and what makes recycling invisible in the bytes:
// a recycled world must be observationally identical to a fresh one.
// Every layer owns its part — the scheduler drains its wheel and
// re-seeds its rng, links rewind rings/counters/taps and take fresh
// AQM instances, hosts return conns to the pool and re-arm their
// address, the packet pool re-carves its slabs, sketches and binned
// series zero in place — and the per-cell wiring below replays exactly
// the calls a fresh construction would make, in the same order, so the
// scheduler's (time, seq) event ordering is reproduced bit for bit.
// The fresh-vs-recycled equivalence tests pin this.
type cellWorld struct {
	f   Fleet // resolved spec, fixed at construction
	per int   // clients per cell (== Tree.ClientsPerAgg)

	sch      *sim.Scheduler
	server   *tcp.Host
	tree     *netem.Tree
	segPool  *packet.Pool
	connPool *tcp.ConnPool
	yt       *service.YouTube
	nf       *service.Netflix
	pattern  []PlayerKind

	// Per-slot wiring, created on first use and kept for the world's
	// lifetime. Slot j serves local client j of whatever cell is
	// running; hosts are re-addressed per cell by Host.Reset.
	hosts []*tcp.Host
	envs  []player.Env

	// Per-cell scratch, reused. perAgg/aggTaps are per active group;
	// the tap structs live here so AddTap boxes a stable pointer
	// instead of allocating a fresh tap per cell.
	kinds   []PlayerKind
	vids    []media.Video
	starts  []time.Duration
	states  []clientState
	players []player.Player
	perAgg  []*stats.Binned
	aggTaps []utilTap
	coreTap utilTap

	// free holds result shells whose cells have been emitted; their
	// sketches and series are scrubbed and reused for later cells.
	free []*FleetResult
}

// newCellWorld builds the world's permanent wiring for f (already
// defaulted and validated): topology, server stack, service front end,
// pools, and fixed-size scratch. Nothing here depends on which cell
// runs; all cell-specific state is installed by run.
func newCellWorld(f Fleet) *cellWorld {
	per := f.Tree.ClientsPerAgg
	w := &cellWorld{f: f, per: per}
	w.sch = sim.NewScheduler(f.Seed) // re-seeded per cell by run
	w.server = tcp.NewHost(w.sch, session.ServerAddr[0], session.ServerAddr[1], session.ServerAddr[2], session.ServerAddr[3])
	w.tree = netem.NewTree(w.sch, f.Tree, w.server)
	w.server.SetLink(w.tree.CoreDown)

	// Streaming sinks only — every stack on the tree shares one
	// segment pool and one conn pool, the same O(flows) memory regime
	// sessions use, retained across cells.
	w.segPool = &packet.Pool{}
	w.connPool = &tcp.ConnPool{}
	w.server.SetSegmentPool(w.segPool)
	w.server.SetConnPool(w.connPool)

	switch f.Mix[0].Player.Service() {
	case session.YouTube:
		w.yt = service.NewYouTube(w.server, f.ServerTCP, nil)
	case session.Netflix:
		w.nf = service.NewNetflix(w.server, f.ServerTCP, nil)
	}
	if len(f.CCMix) > 0 {
		// Per-client server-side congestion control: the peer address
		// encodes the global client index, so the assignment is the
		// same no matter which cell, worker or process serves it.
		ccmix := f.CCMix
		w.server.SetAcceptConfig(func(peer packet.Endpoint, cfg tcp.Config) tcp.Config {
			i, _ := session.ClientIndex(peer.Addr)
			cfg.CC = ccmix[i%len(ccmix)]
			return cfg
		})
	}

	w.pattern = f.pattern()
	w.coreTap.bins = make([]*stats.Binned, 0, 1)
	w.hosts = make([]*tcp.Host, 0, per)
	w.envs = make([]player.Env, 0, per)
	w.kinds = make([]PlayerKind, per)
	w.vids = make([]media.Video, per)
	w.starts = make([]time.Duration, per)
	w.states = make([]clientState, per)
	w.players = make([]player.Player, per)
	return w
}

// run simulates global clients [from, to) — one aggregation group — on
// the recycled world and returns its streaming statistics. The caller
// must hand the result back via putResult once it has been folded or
// serialized; until then the world may run further cells (shells come
// from a pool, not from the world's hot state).
func (w *cellWorld) run(from, to int) *FleetResult {
	n := to - from
	f := w.f

	// Rewind every recycled layer to its just-built state. On a brand
	// new world these are no-ops on empty structures, so fresh and
	// recycled cells share one code path.
	w.sch.Reset(fleetCellSeed(f.Seed, from))
	w.server.Reset(session.ServerAddr[0], session.ServerAddr[1], session.ServerAddr[2], session.ServerAddr[3])
	for j, h := range w.hosts {
		if j < n {
			addr := session.ClientAddrOf(from + j)
			h.Reset(addr[0], addr[1], addr[2], addr[3])
		} else {
			// Spare slot from a fuller previous cell: return its conns
			// and park it unaddressed.
			h.Reset(0, 0, 0, 0)
		}
	}
	w.tree.Reset()
	w.segPool.Reset()
	if w.yt != nil {
		w.yt.ResetCatalog()
	}
	if w.nf != nil {
		w.nf.ResetCatalog()
	}

	res := w.takeResult()
	res.Clients = n

	kinds := w.kinds[:n]
	vids := w.vids[:n]
	for j := 0; j < n; j++ {
		kinds[j] = w.pattern[(from+j)%len(w.pattern)]
		vids[j] = f.fleetVideo(from+j, kinds[j])
		if w.yt != nil {
			w.yt.AddVideo(vids[j])
		}
		if w.nf != nil {
			w.nf.AddVideo(vids[j])
		}
	}

	w.coreTap.bins = append(w.coreTap.bins[:0], res.CoreUtil)
	w.tree.CoreDown.AddTap(&w.coreTap)
	if f.ExtraCoreTap != nil {
		w.tree.CoreDown.AddTap(f.ExtraCoreTap)
	}

	w.starts = f.Arrival.TimesInto(w.starts, n, w.sch.Rand())
	starts := w.starts
	states := w.states[:n]
	players := w.players[:n]
	groups := 0
	for j := 0; j < n; j++ {
		addr := session.ClientAddrOf(from + j)
		if j == len(w.hosts) {
			host := tcp.NewHost(w.sch, addr[0], addr[1], addr[2], addr[3])
			host.SetSegmentPool(w.segPool)
			host.SetConnPool(w.connPool)
			w.hosts = append(w.hosts, host)
			w.envs = append(w.envs, player.Env{Sch: w.sch, Host: host, Server: packet.Endpoint{Addr: session.ServerAddr, Port: 80}})
		}
		host := w.hosts[j]
		host.SetLink(w.tree.Attach(addr, host))
		// The first client of a group wires the aggregation link: its
		// burstiness series, the shared tier accumulator, and the
		// fleet's dynamics timeline.
		if g := w.tree.Group(j); g == groups {
			if g == len(w.perAgg) {
				w.perAgg = append(w.perAgg, stats.NewBinned(f.UtilBin, f.Duration))
				w.aggTaps = append(w.aggTaps, utilTap{bins: make([]*stats.Binned, 0, 2)})
			} else {
				w.perAgg[g].Reset()
			}
			groups++
			w.aggTaps[g].bins = append(w.aggTaps[g].bins[:0], res.AggUtil, w.perAgg[g])
			w.tree.AggDown[g].AddTap(&w.aggTaps[g])
			f.Down.Apply(w.sch, w.tree.AggDown[g])
		}
		states[j] = clientState{start: starts[j], first: -1, util: res.AccessUtil}
		w.tree.AccessDown[j].AddTap(&states[j])
		env := &w.envs[j]
		p := kinds[j].New()
		players[j] = p
		vid := vids[j]
		if starts[j] > 0 {
			w.sch.At(starts[j], func() { p.Start(env, vid) })
		} else {
			p.Start(env, vid)
		}
	}
	res.Groups = w.tree.Groups()

	w.sch.RunUntil(f.Duration)

	for j := range states {
		c := &states[j]
		res.Downloaded += players[j].Downloaded()
		q := players[j].QoE(w.sch.Now())
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
		players[j] = nil // drop the player; its QoE is folded in
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
	for _, b := range w.perAgg[:groups] {
		res.AggBurst.Add(stats.CV(b.From(f.Warmup)))
	}
	res.CoreBurst.Add(stats.CV(res.CoreUtil.From(f.Warmup)))

	res.CoreOffered = w.tree.CoreDown.Sent + w.tree.CoreDown.Dropped
	core, agg, access := w.tree.DroppedAtTier()
	res.CoreDropped = core
	res.AggDropped = agg
	res.AccessDropped = access
	res.Unrouted = w.tree.Unrouted()
	// InducedCoreLoss is derived once, in finalize, from the merged
	// counters — it covers the single-cell case too.
	return res
}

// takeResult returns an empty result shell: a scrubbed recycled one
// when available, a fresh allocation otherwise.
func (w *cellWorld) takeResult() *FleetResult {
	if k := len(w.free); k > 0 {
		r := w.free[k-1]
		w.free[k-1] = nil
		w.free = w.free[:k-1]
		return r
	}
	return newFleetResult(w.f)
}

// putResult scrubs an emitted shell and parks it for the next cell.
// Sketches and binned series reset in place (backing maps and slices
// survive), so a steady-state wave allocates no result storage at all.
func (w *cellWorld) putResult(r *FleetResult) {
	r.Clients = 0
	r.Groups = 0
	r.RateMbps.Reset()
	r.StartupSec.Reset()
	r.RebufCount.Reset()
	r.RebufSec.Reset()
	r.SwitchCount.Reset()
	r.FetchedMbps.Reset()
	r.RungSec = r.RungSec[:0]
	r.CoreUtil.Reset()
	r.AggUtil.Reset()
	r.AccessUtil.Reset()
	r.ConcurrencyDeltas.Reset()
	r.AggBurst.Reset()
	r.CoreBurst.Reset()
	r.CoreOffered = 0
	r.CoreDropped = 0
	r.AggDropped = 0
	r.AccessDropped = 0
	r.Unrouted = 0
	r.InducedCoreLoss = 0
	r.Downloaded = 0
	r.ActiveClients = 0
	r.StarvedClients = 0
	if r.Exact != nil {
		r.Exact.RateMbps = r.Exact.RateMbps[:0]
		r.Exact.StartupSec = r.Exact.StartupSec[:0]
	}
	w.free = append(w.free, r)
}
