// Package player implements the client applications whose read/pull
// behaviour determines the streaming strategy (Table 1). The paper's
// applications differ in a handful of numbers, so they are parameters
// of a few types rather than a type each: Puller (the Flash plugin,
// the IE/Firefox/Chrome HTML5 players and the native Android YouTube
// app), IPadYouTube (range requests over successive connections),
// NetflixClient (Silverlight on PCs, the native iPad and Android
// apps) and the segmented adaptive-bitrate player (ABRPlayer) that
// switches rendition-ladder rungs via an abr.Controller.
//
// The package is built from three orthogonal parts:
//
//   - the read-pacing engine (Puller): a player that stops reading
//     lets the TCP receive buffer fill, the advertised window closes,
//     and the server stalls — producing the OFF periods of Section 3
//     without any server cooperation;
//   - the playback-buffer model (PlaybackBuffer): an analytic account
//     of the client's media buffer — fill on download, drain at the
//     encoded bitrate, startup threshold, stall/resume bookkeeping —
//     that yields the QoE metrics (startup delay, rebuffering, rung
//     occupancy) without scheduling a single event, so wire traces
//     are byte-identical with or without it;
//   - the ABR decision loop (ABRPlayer + abr.Controller): which rung
//     of the rendition ladder the next chunk is fetched at.
package player

import (
	"math/rand"
	"time"

	"repro/internal/httpx"
	"repro/internal/media"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Env is everything a player needs to stream one video.
type Env struct {
	Sch    *sim.Scheduler
	Host   *tcp.Host       // client-side host
	Server packet.Endpoint // service address (port 80)
}

// Rand returns the deterministic per-run random source.
func (e *Env) Rand() *rand.Rand { return e.Sch.Rand() }

// Player is a client application model.
type Player interface {
	// Name identifies the application (Table 1 row labels).
	Name() string
	// Start begins streaming the video; it returns immediately and
	// drives itself with scheduler callbacks.
	Start(env *Env, v media.Video)
	// Downloaded reports total media bytes consumed so far.
	Downloaded() int64
	// QoE reports the playback-buffer metrics accumulated up to time
	// at (typically the capture horizon). A player that never started
	// returns the zero Metrics.
	QoE(at time.Duration) Metrics
}

// LegacyStartupSec is the playback threshold the single-bitrate
// players' buffer models use: playback begins once this many media
// seconds are buffered.
const LegacyStartupSec = 2.0

// Puller is a single-connection player whose strategy is how it reads:
// an initial continuous phase until the buffering target, then
// fixed-size pulls on a timer calibrated to the accumulation ratio. A
// zero target or pull size reads greedily throughout, leaving the wire
// pattern to the server's pacing and the receive buffer. It owns the
// wire behaviour only; the attached PlaybackBuffer is a pure observer
// and never schedules events.
type Puller struct {
	name    string
	recvBuf int
	// The buffering target and pull size are drawn at Start, target
	// first: the order fixes every later draw of the run's generator.
	target, pull sizeRange
	accum        float64 // steady-state accumulation ratio

	env        *Env
	cc         *httpx.ClientConn
	rate       float64 // encoded bitrate, which sets the pull period
	targetB    int64   // buffering phase bytes (0 = read everything)
	pullB      int64   // steady-state pull size (0 = always continuous)
	downloaded int64
	allowance  int64 // bytes currently allowed to be consumed
	buffering  bool
	done       bool
	buf        *PlaybackBuffer
}

// sizeRange is a byte count drawn uniformly from [min, min+spread).
type sizeRange struct{ min, spread int64 }

// draw returns a size; a zero spread takes nothing from rng, so a
// fixed size leaves every later draw where it was.
func (r sizeRange) draw(rng *rand.Rand) int64 {
	if r.spread == 0 {
		return r.min
	}
	return r.min + int64(rng.Float64()*float64(r.spread))
}

// Name implements Player.
func (p *Puller) Name() string { return p.name }

// Downloaded implements Player.
func (p *Puller) Downloaded() int64 { return p.downloaded }

// QoE implements Player.
func (p *Puller) QoE(at time.Duration) Metrics { return p.buf.QoE(at) }

// Start implements Player.
func (p *Puller) Start(env *Env, v media.Video) {
	p.env, p.rate = env, v.EncodingRate
	p.cc = openConn(env, tcp.Config{RecvBuf: p.recvBuf})
	p.targetB = min(p.target.draw(env.Rand()), v.Size())
	p.pullB = p.pull.draw(env.Rand())
	p.buffering = true
	p.allowance = 1<<62 - 1 // unconstrained during buffering
	p.buf = NewPlaybackBuffer(env.Sch.Now(), LegacyStartupSec, v.EncodingRate)
	p.cc.OnBody(func(int) { p.drain() })
	p.cc.Get(service.VideoPath(v.ID), nil)
}

func (p *Puller) drain() {
	if p.done {
		return
	}
	for {
		want := p.allowance
		if want <= 0 {
			break
		}
		if want > 1<<30 {
			want = 1 << 30
		}
		n := p.cc.DiscardBody(int(want))
		if n == 0 {
			break
		}
		p.downloaded += int64(n)
		p.buf.AddBytes(p.env.Sch.Now(), int64(n))
		if !p.buffering {
			p.allowance -= int64(n)
		}
		if p.buffering && p.pullB > 0 && p.targetB > 0 && p.downloaded >= p.targetB {
			p.enterSteadyState()
			break
		}
	}
	if p.cc.BodyRemaining() == 0 && p.downloaded > 0 {
		p.done = true
		p.buf.MarkEnded()
	}
}

func (p *Puller) enterSteadyState() {
	p.buffering = false
	p.allowance = 0
	period := time.Duration(float64(p.pullB) * 8 / (p.accum * p.rate) * float64(time.Second))
	var tick func()
	tick = func() {
		if p.done {
			return
		}
		p.allowance += p.pullB
		p.drain()
		if !p.done {
			p.env.Sch.After(period, tick)
		}
	}
	p.env.Sch.After(period, tick)
}

// openConn dials the service and returns a ClientConn.
func openConn(env *Env, cfg tcp.Config) *httpx.ClientConn {
	return httpx.NewClientConn(env.Host.Dial(cfg, env.Server))
}

// Compile-time interface checks.
var _ = []Player{(*Puller)(nil), (*IPadYouTube)(nil), (*NetflixClient)(nil), (*ABRPlayer)(nil)}
