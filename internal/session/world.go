package session

import (
	"time"

	"repro/internal/media"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// World is what every simulation in this repository runs on: one
// scheduler, one server with its YouTube or Netflix front end, the
// segment pool every stack shares, and client slots numbered by the
// address plan (ClientAddrOf). It owns no topology: the caller links
// Server and each client host into one — a Shared run's Path, a fleet
// cell's Tree.
//
// A run takes four steps: NewWorld (or Reset), link Server into the
// topology, Add the clients in slot order and link the host each Add
// returns, then Run. Nothing draws from Sch's rng or schedules an
// event before Run starts the players, so what the caller draws or
// schedules first (arrival offsets, dynamics timelines) comes first in
// the rng and event streams.
//
// Players outlive their run in the caller's Configs and Results, so a
// world that runs once (a Shared run's) is released when its results
// are read; a recycled one (a fleet cell's) is Reset instead.
type World struct {
	Sch    *sim.Scheduler
	Server *tcp.Host

	segPool *packet.Pool
	catalog interface {
		AddVideo(media.Video)
		ResetCatalog()
	}

	// hosts and envs are per slot and live as long as the world: slot
	// j serves the j-th client added since the last Reset.
	hosts []*tcp.Host
	envs  []player.Env
	slots []slot
}

// slot is one client added since the last Reset.
type slot struct {
	player player.Player
	video  media.Video
	start  time.Duration
}

// NewWorld builds a world seeded with seed whose server runs svc with
// the server-side TCP configuration serverTCP.
func NewWorld(seed int64, svc ServiceKind, serverTCP tcp.Config) *World {
	sch := sim.NewScheduler(seed)
	w := &World{
		Sch:     sch,
		Server:  tcp.NewHost(sch, ServerAddr[0], ServerAddr[1], ServerAddr[2], ServerAddr[3]),
		segPool: &packet.Pool{},
	}
	w.Server.SetSegmentPool(w.segPool)
	if svc == Netflix {
		w.catalog = service.NewNetflix(w.Server, serverTCP, nil)
	} else {
		w.catalog = service.NewYouTube(w.Server, serverTCP, nil)
	}
	return w
}

// Reset rewinds the world to its just-built state under a new seed,
// for the next population: the recycling contract. Every layer
// rewinds its own part — the scheduler drains its queues and re-seeds
// its rng, the server and every client host scrub their own conns in
// place for reuse, the packet pool re-carves its slabs, the catalog
// empties — and a recycled run replays exactly the calls a fresh one
// makes, so the scheduler's (time, seq) event order and every byte
// match a fresh world's. Hosts, their links and the server's listener
// and accept hook survive; the caller resets its topology in the same
// pass.
func (w *World) Reset(seed int64) {
	w.Sch.Reset(seed)
	w.Server.Reset(ServerAddr[0], ServerAddr[1], ServerAddr[2], ServerAddr[3])
	for _, h := range w.hosts {
		h.Reset(0, 0, 0, 0) // parked until Add re-addresses it
	}
	w.segPool.Reset()
	w.catalog.ResetCatalog()
	clear(w.slots)
	w.slots = w.slots[:0]
}

// Add puts client i of the address plan into the next slot: a host on
// the world's segment pool, the video in the catalog, and the player,
// which Run starts at start. The caller sets the host's egress link and
// routes the client's address to it.
func (w *World) Add(i int, v media.Video, p player.Player, start time.Duration) *tcp.Host {
	addr := ClientAddrOf(i)
	j := len(w.slots)
	if j == len(w.hosts) {
		h := tcp.NewHost(w.Sch, addr[0], addr[1], addr[2], addr[3])
		h.SetSegmentPool(w.segPool)
		w.hosts = append(w.hosts, h)
		w.envs = append(w.envs, player.Env{Sch: w.Sch, Host: h, Server: packet.Endpoint{Addr: ServerAddr, Port: 80}})
	} else {
		w.hosts[j].Reset(addr[0], addr[1], addr[2], addr[3])
	}
	w.catalog.AddVideo(v)
	w.slots = append(w.slots, slot{player: p, video: v, start: start})
	return w.hosts[j]
}

// Run starts every player in slot order, at once when its start is
// zero and at its start otherwise, then runs the scheduler to horizon.
func (w *World) Run(horizon time.Duration) {
	for j := range w.slots {
		env, p, v := &w.envs[j], w.slots[j].player, w.slots[j].video
		if at := w.slots[j].start; at > 0 {
			w.Sch.At(at, func() { p.Start(env, v) })
		} else {
			p.Start(env, v)
		}
	}
	w.Sch.RunUntil(horizon)
}

// Player returns the player in slot j.
func (w *World) Player(j int) player.Player { return w.slots[j].player }

// release zeroes each client host's conns and clears every Env, so a
// finished player reaches only its own counters, its PlaybackBuffer
// and empty Conns, not the world. The caller's topology stays
// readable. The world must not run or Reset again.
func (w *World) release() {
	for _, h := range w.hosts[:len(w.slots)] {
		h.Release()
	}
	clear(w.envs)
}
