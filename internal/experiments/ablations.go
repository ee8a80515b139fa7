package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Ablation experiments for the simulator's design choices: the receive
// buffer and loss (the server's idle reset is fig9-idlereset). They
// operate at the substrate level (raw TCP over netem) or via session
// overrides, isolating one mechanism each.

// lab is a bare two-host TCP testbed whose path is tapped by the
// online analyzer and the window series.
type lab struct {
	sch            *sim.Scheduler
	client, server *tcp.Host
	stream         *analysis.Streaming
	series         *trace.Series
}

func newLab(seed int64, prof netem.Profile) *lab {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	path := netem.NewPath(sch, prof, client, server)
	client.SetLink(path.Up)
	server.SetLink(path.Down)
	stream, series := analysis.NewStreaming(analysis.Config{}), &trace.Series{}
	sink := trace.Fanout(stream, series)
	path.AddTaps(trace.SinkTap(sink, trace.Down), trace.SinkTap(sink, trace.Up))
	return &lab{sch: sch, client: client, server: server, stream: stream, series: series}
}

// AblationRecvBufferResult shows that pull pacing needs the advertised
// window to bind: with an oversized buffer the client's slow reads no
// longer shape the wire traffic.
type AblationRecvBufferResult struct {
	// BlocksByBuf maps receive-buffer bytes to the on-wire median
	// block size (kB) for the same 256 kB / 2 s pull schedule.
	BlocksByBuf map[int]float64
	// BurstByBuf maps receive-buffer bytes to the initial unpaced
	// burst (kB): the window only starts shaping traffic once the
	// buffer fills, so the burst tracks the buffer size.
	BurstByBuf map[int]float64
	ZeroWindow map[int]int
	Artifact   Artifact
}

// AblationRecvBuffer sweeps the client receive buffer under an
// IE-style pull schedule.
func AblationRecvBuffer(o Options) *AblationRecvBufferResult {
	o = o.withDefaults()
	res := &AblationRecvBufferResult{
		BlocksByBuf: map[int]float64{},
		BurstByBuf:  map[int]float64{},
		ZeroWindow:  map[int]int{},
		Artifact:    Artifact{Title: "Ablation: receive buffer size vs pull pacing"},
	}
	bufs := []int{128 << 10, 384 << 10, 8 << 20}
	analyses := runner.Map(o.pool(), bufs, func(_ int, buf int) labAnalysis {
		l := newLab(o.Seed, netem.Profile{Name: "lab", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps, RTT: 30 * time.Millisecond, Queue: 1536 << 10})
		l.server.Listen(80, tcp.Config{}, func(c *tcp.Conn) {
			c.SetCallbacks(tcp.Callbacks{OnConnected: func() { c.WriteZero(64 << 20) }})
		})
		c := l.client.Dial(tcp.Config{RecvBuf: buf}, packet.EP(203, 0, 113, 10, 80))
		var pull func()
		pull = func() {
			c.Discard(256 << 10)
			l.sch.After(2*time.Second, pull)
		}
		l.sch.After(0, pull)
		l.sch.RunUntil(o.Duration)
		return analyzeLab(l)
	})
	for i, buf := range bufs {
		a := analyses[i]
		res.BlocksByBuf[buf] = float64(a.median) / 1e3
		res.BurstByBuf[buf] = float64(a.burst) / 1e3
		res.ZeroWindow[buf] = a.zeroWindows
		res.Artifact.Addf("recvBuf %5d kB: initial burst %7.0f kB, median wire block %6.0f kB, %d zero-window ACKs",
			buf>>10, res.BurstByBuf[buf], res.BlocksByBuf[buf], a.zeroWindows)
	}
	res.Artifact.Addf("only a binding window (buffer comparable to the pull size) produces ON-OFF pacing")
	return res
}

type labAnalysis struct {
	median      int64
	burst       int64 // bytes of the initial unpaced burst (cycle 0)
	zeroWindows int
}

func analyzeLab(l *lab) labAnalysis {
	var out labAnalysis
	a := l.stream.Result()
	out.median = a.MedianBlock()
	out.burst = a.BufferedBytes
	for _, wp := range l.series.Windows {
		if wp.Window == 0 {
			out.zeroWindows++
		}
	}
	return out
}

// AblationLossResult reproduces the paper's Residence/Academic
// artefact: loss merges and splits ON-OFF cycles, spreading the block
// distribution around the 64 kB mode.
type AblationLossResult struct {
	// Rows are (loss rate, median block kB, p90 block kB, retrans %).
	Rows     [][4]float64
	Artifact Artifact
}

// AblationLoss sweeps random loss under the Flash strategy.
func AblationLoss(o Options) *AblationLossResult {
	o = o.withDefaults()
	res := &AblationLossResult{Artifact: Artifact{Title: "Ablation: loss rate vs Flash block-size spread"}}
	v := media.Video{ID: 52, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	res.Artifact.Addf("%-10s %-16s %-14s %-10s", "loss", "median blk kB", "p90 blk kB", "retrans%")
	losses := []float64{0, 0.002, 0.01}
	cfgs := make([]session.Config, len(losses))
	for i, loss := range losses {
		prof := netem.Research
		prof.Name = "lossy"
		prof.Loss = loss
		cfgs[i] = session.Config{
			Video: v, Service: session.YouTube,
			Player: player.NewFlashPlayer("x"), Network: prof,
			Seed: o.Seed, Duration: o.Duration,
		}
	}
	results := runSessions(o, cfgs)
	for i, loss := range losses {
		r := results[i]
		var blocks []float64
		for _, b := range r.Analysis.Blocks {
			blocks = append(blocks, kb(b))
		}
		c := stats.NewCDF(blocks)
		row := [4]float64{loss, c.Median(), c.Quantile(0.9), r.Analysis.RetransRate * 100}
		res.Rows = append(res.Rows, row)
		res.Artifact.Addf("%-10.3f %-16.0f %-14.0f %-10.2f", row[0], row[1], row[2], row[3])
	}
	res.Artifact.Addf("loss widens the block distribution around the 64 kB mode (Section 5.1.1)")
	return res
}
