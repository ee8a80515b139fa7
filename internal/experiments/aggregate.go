package experiments

import (
	"fmt"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/stats"
)

// AggregateLossResult is the packet-level companion to the Section 6
// fluid model AND the paper's stated future work ("the impact of the
// three different streaming strategies on the network loss rate"):
// many concurrent sessions of one strategy share a bottleneck, and we
// measure the loss each strategy induces plus the aggregate-rate
// statistics the model predicts.
type AggregateLossResult struct {
	Rows     []AggregateRow
	Artifact Artifact
}

// AggregateRow is one strategy's shared-bottleneck outcome.
type AggregateRow struct {
	Strategy     string
	InducedLoss  float64 // bottleneck queue drops / offered packets
	MeanRateMbps float64 // measured aggregate downstream rate
	StdRateMbps  float64
	ModelMean    float64 // fluid-model prediction for the same mix
}

// rateMeter buckets downstream bytes per interval to compute
// aggregate-rate statistics at packet level.
type rateMeter struct {
	bucket  time.Duration
	buckets map[int]int64
}

// Capture implements netem.Tap.
func (m *rateMeter) Capture(at time.Duration, seg *packet.Segment) {
	if seg.Len() == 0 {
		return
	}
	m.buckets[int(at/m.bucket)] += int64(seg.Len())
}

func (m *rateMeter) series(from, to time.Duration) []float64 {
	var out []float64
	for i := int(from / m.bucket); i < int(to/m.bucket); i++ {
		out = append(out, float64(m.buckets[i])*8/m.bucket.Seconds())
	}
	return out
}

// AggregateLoss runs o.N concurrent sessions per strategy through a
// shared 100 Mbps bottleneck and reports induced loss and aggregate
// statistics.
func AggregateLoss(o Options) *AggregateLossResult {
	o = o.withDefaults()
	res := &AggregateLossResult{Artifact: Artifact{Title: "Extension: strategy impact on shared-bottleneck loss (paper's future work)"}}
	n := o.N * 3
	if n < 6 {
		n = 6
	}
	warm := 60 * time.Second
	horizon := warm + o.Duration

	type aggCase struct {
		label     string
		container media.Container
		mk        func() player.Player
	}
	cases := []aggCase{
		{"Short ON-OFF (Flash)", media.Flash, func() player.Player { return player.NewFlashPlayer("x") }},
		{"Long ON-OFF (Chrome)", media.HTML5, func() player.Player { return player.NewChromeHtml5() }},
		{"No ON-OFF (Firefox)", media.HTML5, func() player.Player { return player.NewFirefoxHtml5() }},
	}
	res.Artifact.Addf("%d concurrent 1.2 Mbps sessions on a shared 100 Mbps / 384 kB-queue bottleneck", n)
	res.Artifact.Addf("%-24s %-14s %-22s %-12s", "strategy", "loss induced", "aggregate Mbps (std)", "model E[R]")
	// Each case owns a scheduler and a seed, so the three strategies
	// run concurrently on the pool.
	res.Rows = runner.Map(o.pool(), cases, func(ci int, c aggCase) AggregateRow {
		// A tight queue makes strategy burstiness visible as drops.
		sh := session.NewShared(session.Config{
			Service: session.YouTube, Seed: o.Seed + int64(ci), Duration: horizon,
			Network: netem.Profile{
				Name: "bottleneck", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps,
				RTT: 40 * time.Millisecond, Queue: 384 << 10,
			},
		})
		meter := &rateMeter{bucket: time.Second, buckets: map[int]int64{}}
		sh.Path.Down.AddTap(meter)

		// Every draw precedes the run: the video durations, then the
		// staggered arrivals over the warm-up window.
		vids := make([]media.Video, n)
		for i := range vids {
			vids[i] = media.Video{
				ID:           1000 + i,
				EncodingRate: 1.2e6,
				Duration:     time.Duration(180+sh.Rand().Intn(240)) * time.Second,
				Container:    c.container,
				Resolution:   "360p",
			}
		}
		for _, v := range vids {
			at := time.Duration(sh.Rand().Int63n(int64(warm)))
			sh.Add(session.Config{Video: v, Player: c.mk(), StartAt: at})
		}
		sh.Run()

		down := sh.Path.Down
		offered := down.Sent + down.Dropped
		loss := 0.0
		if offered > 0 {
			loss = float64(down.Dropped) / float64(offered)
		}
		series := meter.series(warm, horizon)
		mean := stats.Mean(series)
		std := stats.Std(series)
		// Fluid-model prediction for the same mix: λ = n/warm-ish is
		// not stationary here; instead compare against n concurrent
		// sessions at their average rates. For ON-OFF strategies the
		// long-run per-session rate is ~accumulation x encoding rate.
		perSession := 1.2e6 * 1.25
		return AggregateRow{
			Strategy:     c.label,
			InducedLoss:  loss,
			MeanRateMbps: mean / 1e6,
			StdRateMbps:  std / 1e6,
			ModelMean:    float64(n) * perSession / 1e6,
		}
	})
	for _, row := range res.Rows {
		res.Artifact.Addf("%-24s %-14s %-22s %-12.1f",
			row.Strategy,
			fmt.Sprintf("%.3f%%", row.InducedLoss*100),
			fmt.Sprintf("%.1f (%.1f)", row.MeanRateMbps, row.StdRateMbps),
			row.ModelMean)
	}
	res.Artifact.Addf("bulk transfers slam the queue hardest; rate-limited strategies spread the load")
	return res
}
