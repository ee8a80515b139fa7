// Package session orchestrates one streaming measurement exactly like
// the paper's methodology (Section 4.2): set up a vantage network,
// start the capture, start the player, stream for 180 seconds, stop,
// and analyze. The capture is streamed: the online analyzer
// (analysis.Streaming, O(flows) state) observes every packet at the
// tap, then the caller's Config.Capture sink, if any — a trace.Series
// for figure curves, a trace.PcapSink for export. Nothing retains the
// packets, so every stack recycles segment structs through a pool.
//
// World is the one simulation every run lives on: a scheduler, a
// server and its service, and client slots, wired into a topology by
// its caller. Shared puts a World on one bottleneck path, with any
// number of such clients each captured on its own; Run, the paper's
// isolated measurement, is its one-client case. Fleet cells (package
// scenario) put a World on a netem.Tree.
//
// A finished Shared run releases its World: the players its Results
// and the caller's Configs keep hold their counters and playback
// buffers, not the scheduler, hosts and pools. A batch of runs then
// holds one world per run still going, not one per run it made.
package session

import (
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ServiceKind selects which service backend serves the video.
type ServiceKind int

// The two services.
const (
	YouTube ServiceKind = iota
	Netflix
)

func (k ServiceKind) String() string {
	if k == YouTube {
		return "YouTube"
	}
	return "Netflix"
}

// DefaultDuration is the paper's per-video capture time.
const DefaultDuration = 180 * time.Second

// Config describes one streaming session.
type Config struct {
	Video   media.Video
	Service ServiceKind
	Player  player.Player
	Network netem.Profile
	// Duration bounds the capture; 0 means DefaultDuration (180 s).
	// It is an absolute horizon: a session with StartAt > 0 streams
	// for Duration - StartAt before the capture stops.
	Duration time.Duration
	// StartAt delays the player start — the arrival offset used by
	// scenario batches where sessions join over time. The capture
	// still begins at t=0, like tcpdump started before the player.
	StartAt time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// ServerTCP overrides the server-side TCP configuration (the
	// IdleReset ablation flips a field here).
	ServerTCP tcp.Config
	// DownDynamics and UpDynamics schedule mid-session network changes
	// (rate steps/ramps, delay and loss changes, outages) on the
	// respective link. Empty timelines leave the link frozen, which is
	// the historical behaviour.
	DownDynamics netem.Dynamics
	UpDynamics   netem.Dynamics
	// Capture, when set, observes the client's capture after the
	// analyzer: a trace.Series for the exact figure curves, a
	// trace.PcapSink for export, a trace.Trace recording in tests. The
	// caller owns it and closes it after the run. Segment structs are
	// recycled once delivered, so it must not retain them (see
	// trace.Sink).
	Capture trace.Sink
	// SeriesBin, when positive, makes the analyzer aggregate the
	// capture into fixed-width bins (Result.Analysis.Bins): the
	// constant-memory form of the series.
	SeriesBin time.Duration
}

// Result carries everything a measurement produced.
type Result struct {
	Config   Config
	Analysis *analysis.Result
	// Packets is the captured packet count (both directions).
	Packets int
	// Downloaded is the player-side consumed byte count.
	Downloaded int64
	// QoE is the player's playback-buffer outcome (startup delay,
	// rebuffering, rung occupancy), evaluated at the capture horizon.
	QoE     player.Metrics
	Elapsed time.Duration
}

// ServerAddr is the service address.
var ServerAddr = [4]byte{203, 0, 113, 10}

// ClientAddr is the measurement vantage address used in captures: the
// address of client 0, the only client of a plain session.
var ClientAddr = ClientAddrOf(0)

// ClientAddrOf numbers clients from 10.0.0.1 upward across the whole
// 10.0.0.0/8 plan: three octets of i+1, injective below 2^24-1 and
// identical to the historical 10.0/16 numbering for the first 65535
// clients. Shared runs and fleet cells address their clients with it.
func ClientAddrOf(i int) [4]byte {
	return [4]byte{10, byte((i + 1) >> 16), byte((i + 1) >> 8), byte(i + 1)}
}

// ClientIndex inverts ClientAddrOf: the client index behind an address
// in the 10.0.0.0/8 plan. ok is false for any other address.
func ClientIndex(addr [4]byte) (i int, ok bool) {
	i = int(addr[1])<<16 | int(addr[2])<<8 | int(addr[3]) - 1
	return i, addr[0] == 10 && i >= 0
}

// AnalysisConfig returns the analyzer configuration a session derives
// from its video metadata, for analyzing a saved capture of the
// session the way its live analyzer did.
func (cfg Config) AnalysisConfig() analysis.Config {
	return analysis.Config{
		KnownDuration: cfg.Video.Duration,
		KnownRate:     cfg.Video.EncodingRate,
		SeriesBin:     cfg.SeriesBin,
	}
}

// Run executes the session and analyzes the capture: the one-client
// case of a Shared run.
func Run(cfg Config) *Result {
	s := NewShared(cfg)
	s.Add(cfg)
	return s.Run()[0]
}

// Shared is one deterministic simulation in which clients share a path
// to one server: a World whose server sends on Path.Down into Switch,
// which routes by client address, and whose clients all send on
// Path.Up. Each client is captured on its own, as if tcpdump ran on
// it. A plain session (Run) is the one-client case.
//
// Use it in three steps: NewShared, then Add every client in index
// order, then Run. Apart from the dynamics timelines, nothing draws
// from the scheduler's rng or schedules an event until the players
// start in Run, so draws the caller makes from Rand before then
// (arrival offsets, say) come first in the rng stream.
type Shared struct {
	// Path is the shared bottleneck; Switch is its client side.
	Path   *netem.Path
	Switch *netem.Switch

	world   *World
	horizon time.Duration
	clients []client
	sinks   []trace.Sink // per-client capture, by client index
}

// client is one Add-ed session inside a Shared run.
type client struct {
	cfg    Config
	stream *analysis.Streaming
}

// NewShared builds the shared part of a run from cfg's Seed, Network,
// Service, ServerTCP, dynamics timelines and Duration (0 means
// DefaultDuration): the world and the path with a Switch on its client
// side. The dynamics are applied here, so they schedule ahead of every
// player start.
func NewShared(cfg Config) *Shared {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	w := NewWorld(cfg.Seed, cfg.Service, cfg.ServerTCP)
	sw := netem.NewSwitch()
	path := netem.NewPath(w.Sch, cfg.Network, sw, w.Server)
	w.Server.SetLink(path.Down)
	cfg.DownDynamics.Apply(w.Sch, path.Down)
	cfg.UpDynamics.Apply(w.Sch, path.Up)
	return &Shared{Path: path, Switch: sw, world: w, horizon: cfg.Duration}
}

// Rand is the simulation's rng, for draws the caller must make before
// any player starts.
func (s *Shared) Rand() *rand.Rand { return s.world.Sch.Rand() }

// Add wires the next client, numbered len(clients) in the address plan
// (ClientAddrOf): a world slot whose host sends on Path.Up and is
// routed by Switch, and its capture sinks. It reads the per-client
// fields of cfg: Video, Player, StartAt, Capture and SeriesBin. The
// player starts in Run.
func (s *Shared) Add(cfg Config) {
	i := len(s.clients)
	host := s.world.Add(i, cfg.Video, cfg.Player, cfg.StartAt)
	host.SetLink(s.Path.Up)
	s.Switch.Route(ClientAddrOf(i), host)
	cfg.Duration = s.horizon

	// tcpdump at the client vantage point: the analyzer, then the
	// caller's sink.
	c := client{cfg: cfg, stream: analysis.NewStreaming(cfg.AnalysisConfig())}
	var sink trace.Sink = c.stream
	if cfg.Capture != nil {
		sink = trace.Fanout(c.stream, cfg.Capture)
	}
	s.clients = append(s.clients, c)
	s.sinks = append(s.sinks, sink)
}

// Run attaches the captures, runs the world to the horizon and returns
// one Result per client, by index. Once the results are read it
// releases the world, so the players no longer reach the scheduler,
// the hosts or the pools. Path and Switch counters stay readable; the
// Shared must not Run again.
func (s *Shared) Run() []*Result {
	s.Path.AddTaps(&clientTap{dir: trace.Down, sinks: s.sinks}, &clientTap{dir: trace.Up, sinks: s.sinks})
	s.world.Run(s.horizon)

	now := s.world.Sch.Now()
	out := make([]*Result, len(s.clients))
	for i := range s.clients {
		c := &s.clients[i]
		a := c.stream.Result()
		out[i] = &Result{
			Config:     c.cfg,
			Analysis:   a,
			Packets:    a.Packets,
			Downloaded: c.cfg.Player.Downloaded(),
			QoE:        c.cfg.Player.QoE(now),
			Elapsed:    now,
		}
	}
	s.world.release()
	return out
}

// clientTap hands a shared link's packets to the per-client capture
// sinks, looked up by the client index the address plan encodes: O(1)
// per packet and no hashing. Downstream packets are keyed on their
// destination, upstream ones on their source; packets of no client are
// skipped.
type clientTap struct {
	dir   trace.Dir
	sinks []trace.Sink
}

// Capture implements netem.Tap.
func (t *clientTap) Capture(at time.Duration, seg *packet.Segment) {
	addr := seg.Src.Addr
	if t.dir == trace.Down {
		addr = seg.Dst.Addr
	}
	if i, ok := ClientIndex(addr); ok && i < len(t.sinks) {
		t.sinks[i].Capture(at, t.dir, seg)
	}
}
