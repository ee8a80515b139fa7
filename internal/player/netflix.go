package player

import (
	"time"

	"repro/internal/httpx"
	"repro/internal/media"
	"repro/internal/service"
	"repro/internal/tcp"
)

// NetflixClient is a Netflix client: fragment fetching over fresh or
// reused connections and a periodic steady-state request schedule.
// Per the paper (Section 5.2), the differences between PC, iPad and
// Android are (a) how many ladder bitrates the buffering phase
// downloads, (b) the per-request block size, and (c) whether
// connections are churned (PC/iPad, giving ACK clocks on fresh
// connections) or kept (Android).
type NetflixClient struct {
	env        *Env
	video      media.Video
	downloaded int64
	done       bool
	buf        *PlaybackBuffer

	// configuration
	name       string
	ladder     []float64 // bitrates fetched during buffering
	chosen     float64   // steady-state bitrate
	bufFrags   int       // fragments per ladder rung during buffering
	steadySecs float64   // extra seconds of chosen rate in buffering
	fragsPerGo int       // fragments per steady-state request burst
	newConnPer bool      // fresh TCP connection per request
	adaptive   bool      // re-pick the steady bitrate from measured throughput
	recvBuf    int

	nextFrag   int
	totalFrags int
	busy       bool              // a fetch group is still in flight
	conn       *httpx.ClientConn // persistent connection when !newConnPer
}

// NewSilverlightPC builds Netflix in a browser via Silverlight:
// buffering downloads every ladder rung (~50 MB, Figure 11a), steady
// state fetches one fragment at a time over fresh connections (short
// ON-OFF, blocks < 2.5 MB, Figure 12a). The paper found the strategy
// browser-independent, so Internet Explorer stands for every browser.
func NewSilverlightPC() *NetflixClient {
	return &NetflixClient{
		name:   "Silverlight (Internet Explorer)",
		ladder: media.NetflixLadder, chosen: media.NetflixLadder[len(media.NetflixLadder)-1],
		bufFrags: 4, steadySecs: 60, fragsPerGo: 1,
		newConnPer: true, adaptive: true, recvBuf: 2 << 20,
	}
}

// NewNetflixIPad builds the native iPad app: it buffers only a subset
// of the ladder (~10 MB, Figure 11a) and then behaves like the PC
// client (short ON-OFF over fresh connections).
func NewNetflixIPad() *NetflixClient {
	return &NetflixClient{
		name:   "Netflix app (iPad)",
		ladder: media.NetflixLadder[2:4], chosen: media.NetflixLadder[3], // mid rungs only
		bufFrags: 2, steadySecs: 16, fragsPerGo: 1,
		newConnPer: true, adaptive: true, recvBuf: 1 << 20,
	}
}

// NewNetflixAndroid builds the native Android app: a large single-rate
// buffering phase (~40 MB, Figure 11b) and long ON-OFF cycles — four
// fragments per request burst on one persistent connection
// (Figure 10b/12b).
func NewNetflixAndroid() *NetflixClient {
	return &NetflixClient{
		name:   "Netflix app (Android)",
		ladder: media.NetflixLadder[3:4], chosen: media.NetflixLadder[3],
		steadySecs: 120, fragsPerGo: 4, recvBuf: 2 << 20,
	}
}

// Name implements Player.
func (nc *NetflixClient) Name() string { return nc.name }

// Downloaded implements Player.
func (nc *NetflixClient) Downloaded() int64 { return nc.downloaded }

// QoE implements Player.
func (nc *NetflixClient) QoE(at time.Duration) Metrics { return nc.buf.QoE(at) }

// Start implements Player.
func (nc *NetflixClient) Start(env *Env, v media.Video) {
	nc.env = env
	nc.video = v
	nc.totalFrags = int(v.Duration / service.FragmentDuration)
	// A video carrying its own rendition ladder only serves those
	// rungs: snap the client's configured rates (defined against the
	// default NetflixLadder) onto it, or every request would 404.
	// Videos without explicit renditions — every legacy catalog —
	// take the historical path untouched.
	if len(v.Renditions) > 0 && len(nc.ladder) > 0 {
		full := v.Ladder()
		snapped := make([]float64, 0, len(nc.ladder))
		for _, r := range nc.ladder {
			s := nearestRung(full, r)
			if len(snapped) == 0 || snapped[len(snapped)-1] != s {
				snapped = append(snapped, s)
			}
		}
		nc.ladder = snapped
		nc.chosen = nearestRung(full, nc.chosen)
	}
	// Playback bookkeeping: bytes convert to media seconds at the
	// steady-state bitrate; re-pinned after the adaptive probe.
	nc.buf = NewPlaybackBuffer(env.Sch.Now(), LegacyStartupSec, nc.chosen)
	// Buffering runs in two pipelined groups on one connection:
	// first the ladder probe (fragments of every configured rung —
	// Akhshabi et al. observed all encoding rates being fetched at
	// session start), then a stretch of the chosen rate. Between the
	// two, an adaptive client re-picks the steady-state bitrate from
	// the throughput the probe measured — the bandwidth dependence of
	// Netflix encoding rates the paper notes in Section 5 [11].
	var probe []fragJob
	for f := 0; f < nc.bufFrags; f++ {
		for _, rate := range nc.ladder {
			probe = append(probe, fragJob{rate, f})
		}
	}
	cc := openConn(env, tcp.Config{RecvBuf: nc.recvBuf})
	if !nc.newConnPer {
		nc.conn = cc
	}
	t0 := env.Sch.Now()
	nc.fetchGroup(cc, probe, false, func() {
		if nc.adaptive && nc.downloaded > 0 {
			if elapsed := env.Sch.Now() - t0; elapsed > 0 {
				thr := float64(nc.downloaded) * 8 / elapsed.Seconds()
				nc.chosen = sustainableRung(nc.ladder, thr)
				nc.buf.SetRate(nc.chosen)
			}
		}
		var fill []fragJob
		extra := int(nc.steadySecs / service.FragmentDuration.Seconds())
		for f := nc.bufFrags; f < nc.bufFrags+extra && f < nc.totalFrags; f++ {
			fill = append(fill, fragJob{nc.chosen, f})
		}
		nc.nextFrag = nc.bufFrags + extra
		nc.fetchGroup(cc, fill, nc.newConnPer, func() { nc.steadyState() })
	})
}

// nearestRung returns the ladder rung closest to rate.
func nearestRung(ladder []float64, rate float64) float64 {
	best := ladder[0]
	for _, r := range ladder {
		d, bd := r-rate, best-rate
		if d < 0 {
			d = -d
		}
		if bd < 0 {
			bd = -bd
		}
		if d < bd {
			best = r
		}
	}
	return best
}

// sustainableRung picks the highest ladder bitrate that fits within
// 80% of the measured throughput, falling back to the lowest rung.
func sustainableRung(ladder []float64, throughput float64) float64 {
	best := ladder[0]
	for _, r := range ladder {
		if r <= 0.8*throughput && r > best {
			best = r
		}
	}
	return best
}

// fragJob names one fragment to fetch.
type fragJob struct {
	bitrate float64
	index   int
}

// fetchGroup pipelines the jobs' requests on cc, reads all bodies
// greedily, optionally closes the connection, then calls done.
func (nc *NetflixClient) fetchGroup(cc *httpx.ClientConn, jobs []fragJob, closeAfter bool, done func()) {
	if len(jobs) == 0 {
		done()
		return
	}
	var expect int64
	for _, j := range jobs {
		expect += service.FragmentBytes(j.bitrate)
	}
	var got int64
	fired := false
	nc.busy = true
	cc.OnBody(func(avail int) {
		n := cc.DiscardBody(avail)
		nc.downloaded += int64(n)
		nc.buf.AddBytes(nc.env.Sch.Now(), int64(n))
		got += int64(n)
		if !fired && got >= expect {
			fired = true
			nc.busy = false
			if closeAfter {
				cc.Conn.Close()
			}
			done()
		}
	})
	for _, j := range jobs {
		cc.Get(service.FragPath(nc.video.ID, j.bitrate, j.index), nil)
	}
}

// steadyState requests fragsPerGo fragments of the chosen bitrate
// every fragsPerGo*FragmentDuration — real-time pacing with a small
// accumulation margin. PC and iPad use a fresh connection per burst
// (the paper observed heavy connection churn and ACK clocks on new
// connections); Android reuses its single connection.
func (nc *NetflixClient) steadyState() {
	if nc.nextFrag >= nc.totalFrags {
		nc.done = true
		nc.buf.MarkEnded()
		return
	}
	const accum = 1.1
	period := time.Duration(float64(nc.fragsPerGo) * float64(service.FragmentDuration) / accum)
	var tick func()
	tick = func() {
		if nc.done || nc.nextFrag >= nc.totalFrags {
			if nc.nextFrag >= nc.totalFrags {
				nc.buf.MarkEnded()
			}
			nc.done = true
			return
		}
		if nc.busy {
			// The previous fetch overran its period (loss, congestion):
			// back off one period instead of stacking requests, the way
			// a real player limits its buffer level.
			nc.env.Sch.After(period, tick)
			return
		}
		var jobs []fragJob
		for i := 0; i < nc.fragsPerGo && nc.nextFrag < nc.totalFrags; i++ {
			jobs = append(jobs, fragJob{nc.chosen, nc.nextFrag})
			nc.nextFrag++
		}
		cc := nc.conn
		if nc.newConnPer || cc == nil {
			cc = openConn(nc.env, tcp.Config{RecvBuf: nc.recvBuf})
		}
		nc.fetchGroup(cc, jobs, nc.newConnPer, func() {})
		nc.env.Sch.After(period, tick)
	}
	nc.env.Sch.After(period, tick)
}
