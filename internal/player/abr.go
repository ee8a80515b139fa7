package player

import (
	"fmt"
	"time"

	"repro/internal/abr"
	"repro/internal/media"
	"repro/internal/service"
	"repro/internal/tcp"
)

// Source selects where an ABRPlayer's chunks come from.
type Source int

// The two chunk sources the services offer.
const (
	// Fragments fetches Netflix-style MP4 fragments at the chosen
	// ladder rung (/frag/<id>/<kbps>/<idx>), each carrying a fragment
	// header the analyzer recovers the rendition from.
	Fragments Source = iota
	// Ranges fetches byte ranges of the per-rendition YouTube resource
	// (/videoplayback/<id>/<kbps> with a Range header) — DASH-over-
	// ranges, the iPad mechanism generalized across the ladder.
	Ranges
)

// Fixed parameters of the ABR player. Every chunk is one service
// fragment duration (4 s) of media, for both sources.
const (
	// abrMaxBufferSec caps the playback buffer: the fetch loop sleeps
	// until the drain makes room — client-driven ON-OFF.
	abrMaxBufferSec = 30.0
	// abrStartupSec is the startup/resume threshold.
	abrStartupSec = 4.0
	// abrRecvBuf is the receive buffer of each chunk's connection.
	abrRecvBuf = 1 << 20
)

// ABRConfig parameterizes an ABRPlayer: the rung controller (nil means
// abr.NewBufferBased) and where chunks come from. The buffer cap,
// startup threshold, chunk duration and receive buffer are fixed.
type ABRConfig struct {
	Controller abr.Controller
	Source     Source
}

// ABRPlayer is the composable adaptive player: a sequential chunk
// fetch loop (one fresh connection per chunk, like the iPad and
// Netflix PC clients) whose rung each iteration is chosen by the
// configured abr.Controller, feeding the explicit PlaybackBuffer. The
// buffer cap makes it self-pacing: once full, fetches wait for drain,
// producing the ON-OFF wire pattern from the client side.
type ABRPlayer struct {
	cfg    ABRConfig
	env    *Env
	video  media.Video
	ladder []float64
	buf    *PlaybackBuffer

	downloaded int64
	next       int // next chunk index
	total      int
	rung       int
	lastBps    float64 // throughput of the most recent chunk fetch
	fetched    bool    // at least one chunk completed
	done       bool
}

// NewABRPlayer builds an adaptive player driven by the controller.
func NewABRPlayer(cfg ABRConfig) *ABRPlayer {
	if cfg.Controller == nil {
		cfg.Controller = abr.NewBufferBased()
	}
	return &ABRPlayer{cfg: cfg}
}

// Name implements Player.
func (p *ABRPlayer) Name() string {
	src := "frag"
	if p.cfg.Source == Ranges {
		src = "range"
	}
	return fmt.Sprintf("ABR (%s, %s)", p.cfg.Controller.Name(), src)
}

// Downloaded implements Player.
func (p *ABRPlayer) Downloaded() int64 { return p.downloaded }

// QoE implements Player.
func (p *ABRPlayer) QoE(at time.Duration) Metrics { return p.buf.QoE(at) }

// Start implements Player.
func (p *ABRPlayer) Start(env *Env, v media.Video) {
	p.env = env
	p.video = v
	p.ladder = v.Ladder()
	p.total = int(v.Duration / service.FragmentDuration)
	p.buf = NewPlaybackBuffer(env.Sch.Now(), abrStartupSec, p.ladder[0])
	p.fetch()
}

// snapshot is what the controller sees right now.
func (p *ABRPlayer) snapshot(level float64) abr.Snapshot {
	return abr.Snapshot{
		BufferSec:    level,
		LastChunkBps: p.lastBps,
		CurrentRung:  p.rung,
		Ladder:       p.ladder,
	}
}

// fetch runs one iteration of the chunk loop: wait for buffer room,
// consult the controller, download the chunk, account it, repeat.
func (p *ABRPlayer) fetch() {
	if p.done {
		return
	}
	if p.next >= p.total {
		p.done = true
		p.buf.MarkEnded()
		return
	}
	now := p.env.Sch.Now()
	level := p.buf.Level(now)
	chunkSec := service.FragmentDuration.Seconds()
	if level+chunkSec > abrMaxBufferSec {
		// Full: sleep until the drain makes room for one chunk. The
		// floor keeps float rounding from producing a zero-duration
		// timer (which would re-enter fetch at the same instant
		// forever).
		wait := time.Duration((level + chunkSec - abrMaxBufferSec) * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		p.env.Sch.After(wait, p.fetch)
		return
	}
	rung := p.cfg.Controller.Next(p.snapshot(level))
	if rung < 0 {
		rung = 0
	}
	if rung >= len(p.ladder) {
		rung = len(p.ladder) - 1
	}
	if p.fetched && rung != p.rung {
		p.buf.NoteSwitch()
	}
	p.rung = rung
	idx := p.next
	p.next++
	p.fetchChunk(idx, rung, now)
}

// fetchChunk downloads chunk idx at ladder rung on a fresh connection,
// then accounts the media and loops.
func (p *ABRPlayer) fetchChunk(idx, rung int, started time.Duration) {
	rate := p.ladder[rung]
	cc := openConn(p.env, tcp.Config{RecvBuf: abrRecvBuf})
	var want int64
	var headers map[string]string
	var path string
	if p.cfg.Source == Fragments {
		path = service.FragPath(p.video.ID, rate, idx)
		want = service.FragmentBytes(rate)
	} else {
		// Byte range of the per-rendition resource. Chunk 0 includes
		// the container header so the stream prefix stays parseable.
		rv := p.video.AtRung(rung)
		hdr := int64(len(media.HeaderFor(rv)))
		fileSize := hdr + rv.Size()
		mb := int64(rate / 8 * service.FragmentDuration.Seconds())
		start := hdr + int64(idx)*mb
		end := start + mb - 1
		if idx == 0 {
			start = 0
		}
		if end >= fileSize {
			end = fileSize - 1
		}
		path = service.RenditionPath(p.video.ID, rate)
		headers = map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", start, end)}
		want = end - start + 1
	}
	var got int64
	fired := false
	cc.OnBody(func(avail int) {
		n := cc.DiscardBody(avail)
		p.downloaded += int64(n)
		got += int64(n)
		if !fired && got >= want {
			fired = true
			cc.Conn.Close()
			p.completeChunk(rung, got, started)
		}
	})
	cc.Get(path, headers)
}

// completeChunk accounts one finished chunk and continues the loop.
func (p *ABRPlayer) completeChunk(rung int, got int64, started time.Duration) {
	now := p.env.Sch.Now()
	if dt := (now - started).Seconds(); dt > 0 {
		p.lastBps = float64(got) * 8 / dt
	}
	p.fetched = true
	chunkSec := service.FragmentDuration.Seconds()
	p.buf.AddMedia(now, chunkSec, p.ladder[rung]*chunkSec, rung)
	p.fetch()
}
