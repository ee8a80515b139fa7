// Package scenario is the declarative layer over the emulation stack:
// a Spec composes a vantage profile, a client application, a video, an
// arrival process and per-direction dynamics timelines into runnable
// batches. The paper measured one frozen network per capture; specs
// reach the time-varying workloads its access networks actually had —
// mid-session rate drops, bursty-loss episodes, outages, and flash
// crowds of sessions competing on one bottleneck.
//
// A spec runs in one of two shapes:
//
//   - Isolated: every session gets its own path (the paper's one
//     player per vantage methodology), expanded into seeded
//     session.Configs and fanned out on the runner pool.
//   - Shared: all sessions join one bottleneck path in a single
//     deterministic simulation (session.Shared), with per-client
//     captures split off the shared links by client address.
//
// Both shapes are bit-reproducible for any worker count: isolated
// batches carry per-session seeds and are consumed in submission
// order; a shared run is one single-threaded simulation.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/tcp"
)

// Spec declares one scenario. The zero value of every optional field
// picks a sensible default (see withDefaults).
type Spec struct {
	Name    string
	Profile netem.Profile // base network; zero Name → netem.Research
	Player  PlayerKind
	// Video is the content template. Sessions stream copies with
	// consecutive IDs so a shared service can route every request. A
	// zero EncodingRate selects a 1.75 Mbps 360p default in the
	// player's native container.
	Video    media.Video
	Sessions int     // session count; 0 → 1
	Arrival  Arrival // start-time process for the sessions
	// Duration is the absolute capture horizon; 0 → 180 s.
	Duration time.Duration
	Seed     int64
	// Down and Up are dynamics timelines for the respective direction
	// (per-path in isolated runs, on the shared bottleneck links in
	// shared runs).
	Down, Up netem.Dynamics
	// ServerTCP overrides the server's TCP configuration.
	ServerTCP tcp.Config
	// SeriesBin, when positive, asks the analyzer for fixed-width
	// binned series (constant-memory download/window curves).
	SeriesBin time.Duration
}

// Service returns the service the spec's player talks to. A player
// implies its service — Silverlight cannot stream from YouTube — so
// specs never carry a contradictory pair.
func (s Spec) Service() session.ServiceKind { return s.Player.Service() }

func (s Spec) withDefaults() Spec {
	if s.Profile.Name == "" {
		s.Profile = netem.Research
	}
	if s.Sessions <= 0 {
		s.Sessions = 1
	}
	if s.Duration <= 0 {
		s.Duration = session.DefaultDuration
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Video = defaultVideo(s.Video, s.Player.NativeContainer())
	// An adaptive player needs a ladder to switch across; the default
	// is the paper-era Netflix ladder.
	if s.Player.Adaptive() && len(s.Video.Renditions) == 0 {
		s.Video = s.Video.WithLadder(media.DefaultLadder()...)
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s/%s x%d", s.Profile.Name, s.Player, s.Sessions)
	}
	return s
}

// defaultVideo fills the zero fields of a content template: a zero
// EncodingRate selects the 1.75 Mbps, 420 s, 360p default in container
// c, a zero ID becomes 9000 and a non-positive Duration 420 s.
func defaultVideo(v media.Video, c media.Container) media.Video {
	if v.EncodingRate == 0 {
		v = media.Video{EncodingRate: 1.75e6, Duration: 420 * time.Second, Container: c, Resolution: "360p"}
	}
	if v.ID == 0 {
		v.ID = 9000
	}
	if v.Duration <= 0 {
		v.Duration = 420 * time.Second
	}
	return v
}

// Validate rejects specs that cannot run.
func (s Spec) Validate() error {
	if s.Sessions < 0 {
		return fmt.Errorf("scenario %q: negative session count", s.Name)
	}
	if err := s.Down.Validate(); err != nil {
		return fmt.Errorf("scenario %q down: %w", s.Name, err)
	}
	if err := s.Up.Validate(); err != nil {
		return fmt.Errorf("scenario %q up: %w", s.Name, err)
	}
	return nil
}

// video returns the i-th session's content: the template with a
// consecutive ID so every session is individually routable/servable.
func (s Spec) video(i int) media.Video {
	v := s.Video
	v.ID += i
	return v
}

// config maps the resolved spec onto session i's config: its video, a
// fresh player, start offset at and seed, on the spec's profile,
// horizon, server and dynamics. Configs and RunShared both build their
// sessions here.
func (s Spec) config(i int, at time.Duration, seed int64) session.Config {
	return session.Config{
		Video:        s.video(i),
		Service:      s.Service(),
		Player:       s.Player.New(),
		Network:      s.Profile,
		Duration:     s.Duration,
		StartAt:      at,
		Seed:         seed,
		ServerTCP:    s.ServerTCP,
		DownDynamics: s.Down,
		UpDynamics:   s.Up,
		SeriesBin:    s.SeriesBin,
	}
}

// Configs expands the spec into independent-path session configs:
// one network per session (the paper's methodology), arrival offsets
// as StartAt, a derived seed per session, and the spec's dynamics on
// every path. The expansion itself is deterministic in Spec.Seed.
func (s Spec) Configs() []session.Config {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	starts := s.Arrival.Times(s.Sessions, rng)
	cfgs := make([]session.Config, s.Sessions)
	for i := range cfgs {
		cfgs[i] = s.config(i, starts[i], rng.Int63())
	}
	return cfgs
}

// RunIsolated executes the expanded configs on a worker pool,
// returning results in submission order (bit-identical for any worker
// count).
func RunIsolated(o runner.Options, s Spec) []*session.Result {
	return runner.Sessions(o, s.Configs())
}

// SharedResult is everything a shared-bottleneck run produced.
type SharedResult struct {
	Spec Spec
	// Outcomes holds one result per session, by client index (arrival
	// offsets are in Config.StartAt).
	Outcomes []*session.Result
	// Bottleneck accounting (shared downstream link).
	Offered     int
	Dropped     int
	InducedLoss float64
	OutageDrops int
	// AqmDrops is the subset of Dropped attributed to the profile's
	// queue policy (RED/CoDel), zero under drop-tail.
	AqmDrops int
	Unrouted int
	// AggregateMbps is the mean downstream rate over the horizon.
	AggregateMbps float64
}

// RunShared executes every session of the spec on one shared
// bottleneck (a session.Shared run) in a single deterministic
// simulation: sessions join at their arrival offsets and compete for
// the same queue while the spec's dynamics play out on the shared
// links. Each client's capture is analyzed individually through its
// own streaming sink.
func RunShared(s Spec) *SharedResult {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	// NewShared reads the run-wide fields of a session's config, Add the
	// per-client ones. Arrival offsets come from the simulation's own
	// rng, drawn before any player starts.
	sh := session.NewShared(s.config(0, 0, s.Seed))
	for i, at := range s.Arrival.Times(s.Sessions, sh.Rand()) {
		sh.Add(s.config(i, at, s.Seed))
	}
	res := &SharedResult{Spec: s, Outcomes: sh.Run()}

	var aggregate int64
	for _, o := range res.Outcomes {
		aggregate += o.Analysis.TotalBytes
	}
	down := sh.Path.Down
	res.Offered = down.Sent + down.Dropped
	res.Dropped = down.Dropped
	res.OutageDrops = down.OutageDrops
	res.AqmDrops = down.AqmDrops
	if res.Offered > 0 {
		res.InducedLoss = float64(res.Dropped) / float64(res.Offered)
	}
	res.Unrouted = sh.Switch.Unrouted
	if s.Duration > 0 {
		res.AggregateMbps = float64(aggregate) * 8 / s.Duration.Seconds() / 1e6
	}
	return res
}

// StrategyMix counts classified strategies across the outcomes,
// rendered in a stable order.
func (r *SharedResult) StrategyMix() string {
	counts := map[analysis.Strategy]int{}
	for _, o := range r.Outcomes {
		counts[o.Analysis.Strategy]++
	}
	out := ""
	for _, st := range []analysis.Strategy{analysis.NoOnOff, analysis.ShortOnOff, analysis.LongOnOff, analysis.MultipleOnOff, analysis.StrategyUnknown} {
		if n := counts[st]; n > 0 {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%dx %s", n, st)
		}
	}
	if out == "" {
		return "none"
	}
	return out
}
