package player

import (
	"fmt"
	"time"

	"repro/internal/media"
	"repro/internal/service"
	"repro/internal/tcp"
)

// NewFlashPlayer builds the Flash plugin in Internet Explorer: it
// reads greedily, so the wire pattern is entirely the server's pacing
// (short ON-OFF at default resolutions, bulk for HD). The paper found
// the strategy independent of the browser for Flash (Table 1), so one
// browser stands for all.
func NewFlashPlayer() *Puller {
	return &Puller{name: "Flash (Internet Explorer)", recvBuf: 512 << 10}
}

// NewIEHtml5 builds Internet Explorer's HTML5 player: a 10–15 MB
// buffering phase (independent of the encoding rate, Figure 3b), then
// 256 kB pulls from the TCP buffer (Figure 5a) at accumulation ratio
// ~1.06. Its small receive buffer is what makes the receive window
// oscillate to zero in Figure 2b.
func NewIEHtml5() *Puller {
	return &Puller{
		name: "HTML5 (Internet Explorer)", recvBuf: 384 << 10,
		target: sizeRange{10 << 20, 5 << 20}, pull: sizeRange{256 << 10, 0}, accum: 1.06,
	}
}

// NewFirefoxHtml5 builds Firefox 4's HTML5 player, which applied no
// client throttling at all: with the server also not pacing WebM, the
// result is a bulk TCP transfer (no ON-OFF cycles, Section 5.1.4).
func NewFirefoxHtml5() *Puller {
	return &Puller{name: "HTML5 (Mozilla Firefox)", recvBuf: 16 << 20}
}

// NewChromeHtml5 builds Chrome 10's HTML5 player: 10–15 MB buffering,
// then large pulls (> 2.5 MB) tens of seconds apart — the long ON-OFF
// cycles of Figure 6 — at accumulation ratio ~1.34.
func NewChromeHtml5() *Puller {
	return &Puller{
		name: "HTML5 (Google Chrome)", recvBuf: 1 << 20,
		target: sizeRange{10 << 20, 5 << 20}, pull: sizeRange{4 << 20, 6 << 20}, accum: 1.34,
	}
}

// NewAndroidYouTube builds the native Android YouTube app: a smaller
// 4–8 MB buffering phase, then long pulls (> 2.5 MB) at accumulation
// ratio ~1.24 over a single connection (Figure 6b, "Rsrch. (And.)").
func NewAndroidYouTube() *Puller {
	return &Puller{
		name: "YouTube app (Android)", recvBuf: 1 << 20,
		target: sizeRange{4 << 20, 4 << 20}, pull: sizeRange{3 << 20, 3 << 20}, accum: 1.24,
	}
}

// IPadYouTube is the native iOS app on an iPad, the "Multiple"
// strategy of Table 1 / Section 5.1.3: successive TCP connections
// fetching byte ranges, block sizes that grow with the encoding rate
// (Figure 7b), and periodic re-buffering bursts between stretches of
// short cycles (Figure 7a, Video1).
type IPadYouTube struct {
	downloaded int64
	env        *Env
	video      media.Video
	fileSize   int64
	offset     int64
	done       bool
	buf        *PlaybackBuffer
}

// NewIPadYouTube builds the model.
func NewIPadYouTube() *IPadYouTube { return &IPadYouTube{} }

// Name implements Player.
func (ip *IPadYouTube) Name() string { return "YouTube app (iPad)" }

// Downloaded implements Player.
func (ip *IPadYouTube) Downloaded() int64 { return ip.downloaded }

// QoE implements Player.
func (ip *IPadYouTube) QoE(at time.Duration) Metrics { return ip.buf.QoE(at) }

// blockBytes is the rate-dependent request size of Figure 7b: roughly
// linear in the encoding rate, from 64 kB up to 8 MB.
func (ip *IPadYouTube) blockBytes() int64 {
	b := int64(64<<10) + int64(0.45*float64(1<<20)*ip.video.EncodingRate/1e6)
	if b > 8<<20 {
		b = 8 << 20
	}
	return b
}

// Start implements Player.
func (ip *IPadYouTube) Start(env *Env, v media.Video) {
	ip.env = env
	ip.video = v
	ip.fileSize = v.Size() + int64(media.WebMHeaderSize)
	ip.buf = NewPlaybackBuffer(env.Sch.Now(), LegacyStartupSec, v.EncodingRate)
	// Initial buffering: a burst of back-to-back range requests.
	burst := min(int64(4<<20)+int64(env.Rand().Float64()*float64(2<<20)), ip.fileSize)
	ip.fetchSequence(burst, func() { ip.steadyCycle() })
}

// fetchSequence downloads total bytes via consecutive range requests
// on fresh connections (the paper saw 37 connections in 60 s), then
// calls done.
func (ip *IPadYouTube) fetchSequence(total int64, done func()) {
	if ip.done || ip.offset >= ip.fileSize || total <= 0 {
		if ip.offset >= ip.fileSize {
			ip.done = true
			ip.buf.MarkEnded()
		}
		done()
		return
	}
	n := min(ip.blockBytes(), total, ip.fileSize-ip.offset)
	start := ip.offset
	ip.offset += n
	cc := openConn(ip.env, tcp.Config{RecvBuf: 1 << 20})
	cc.OnBody(func(avail int) {
		m := cc.DiscardBody(avail)
		ip.downloaded += int64(m)
		ip.buf.AddBytes(ip.env.Sch.Now(), int64(m))
		if cc.BodyRemaining() == 0 {
			cc.Conn.Close()
			ip.fetchSequence(total-n, done)
		}
	})
	cc.Get(service.VideoPath(ip.video.ID), map[string]string{
		"Range": fmt.Sprintf("bytes=%d-%d", start, start+n-1),
	})
}

// steadyCycle alternates short paced range fetches with periodic
// re-buffering bursts, reproducing the Video1 pattern of Figure 7a.
func (ip *IPadYouTube) steadyCycle() {
	if ip.done || ip.offset >= ip.fileSize {
		return
	}
	const accum = 1.15
	block := ip.blockBytes()
	period := time.Duration(float64(block) * 8 / (accum * ip.video.EncodingRate) * float64(time.Second))
	cycles := 0
	var tick func()
	tick = func() {
		if ip.done || ip.offset >= ip.fileSize {
			return
		}
		cycles++
		if cycles%5 == 0 {
			// Periodic re-buffering burst: several blocks back to
			// back (the Figure 7a Video1 pattern), large enough to
			// land above the 2.5 MB long-cycle boundary.
			burst := 5 * block
			if burst < 3<<20 {
				burst = 3 << 20
			}
			ip.fetchSequence(burst, func() { ip.env.Sch.After(period, tick) })
			return
		}
		ip.fetchSequence(block, func() { ip.env.Sch.After(period, tick) })
	}
	ip.env.Sch.After(period, tick)
}
