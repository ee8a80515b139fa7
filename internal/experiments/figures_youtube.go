package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Figure1Result summarizes the phase anatomy of one session (Figure 1).
type Figure1Result struct {
	BufferingEnd  time.Duration
	BufferedBytes int64
	SteadyRate    float64
	Accumulation  float64
	Blocks        int
	Artifact      Artifact
}

// Figure1 runs a single Flash session and reports its phases.
func Figure1(o Options) *Figure1Result {
	o = o.withDefaults()
	v := media.Video{ID: 21, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	r := session.Run(sessionConfig(scenario.Flash, v, netem.Research, o.Seed, o.Duration))
	a := r.Analysis
	res := &Figure1Result{
		BufferingEnd:  a.BufferingEnd,
		BufferedBytes: a.BufferedBytes,
		SteadyRate:    a.SteadyRate,
		Accumulation:  a.AccumulationRatio,
		Blocks:        len(a.Blocks),
		Artifact:      Artifact{Title: "Figure 1: phases of video download"},
	}
	res.Artifact.Addf("buffering phase : %.1f s, %.2f MB (%.1f s of playback)",
		a.BufferingEnd.Seconds(), mb(a.BufferedBytes), a.PlaybackBuffered())
	res.Artifact.Addf("steady state    : %d ON-OFF cycles, average rate %.2f Mbps", len(a.Blocks), mbps(a.SteadyRate))
	res.Artifact.Addf("block size      : median %.0f kB", kb(a.MedianBlock()))
	res.Artifact.Addf("accumulation    : %.2f (steady rate / encoding rate)", a.AccumulationRatio)
	return res
}

// SeriesPoint is one (t, value) sample of a figure curve.
type SeriesPoint struct {
	T time.Duration
	V float64
}

// Figure2Result holds the short ON-OFF traces of Figure 2: download
// amount and receive window evolution for Flash vs HTML5 on IE.
type Figure2Result struct {
	FlashDownload []SeriesPoint
	HTML5Download []SeriesPoint
	FlashWindow   []SeriesPoint
	HTML5Window   []SeriesPoint
	// HTML5WindowZeroes counts receive-window-empty observations in
	// steady state — IE's pull throttling signature.
	HTML5WindowZeroes int
	FlashWindowZeroes int
	Artifact          Artifact
}

// Figure2 reproduces the paired Flash/HTML5 traces on IE.
func Figure2(o Options) *Figure2Result {
	o = o.withDefaults()
	fv := media.Video{ID: 22, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	hv := media.Video{ID: 23, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.HTML5, Resolution: "360p"}
	cfgs := []session.Config{
		sessionConfig(scenario.Flash, fv, netem.Research, o.Seed, o.Duration),
		sessionConfig(scenario.IEHtml5, hv, netem.Research, o.Seed+1, o.Duration),
	}
	fr, hr := seriesOf(&cfgs[0]), seriesOf(&cfgs[1])
	runSessions(o, cfgs)

	res := &Figure2Result{Artifact: Artifact{Title: "Figure 2: short ON-OFF cycles (IE), download amount and TCP receive window"}}
	res.FlashDownload = downloadSeries(fr, 40)
	res.HTML5Download = downloadSeries(hr, 40)
	res.FlashWindow, res.FlashWindowZeroes = windowSeries(fr, 40)
	res.HTML5Window, res.HTML5WindowZeroes = windowSeries(hr, 40)

	res.Artifact.Addf("%-8s %-16s %-16s %-14s %-14s", "t(s)", "Flash DL (MB)", "HTML5 DL (MB)", "Flash wnd(kB)", "HTML5 wnd(kB)")
	for i := 0; i < len(res.FlashDownload) && i < len(res.HTML5Download); i += 4 {
		f, h := res.FlashDownload[i], res.HTML5Download[i]
		fw := sampleAt(res.FlashWindow, f.T)
		hw := sampleAt(res.HTML5Window, f.T)
		res.Artifact.Addf("%-8.1f %-16.2f %-16.2f %-14.0f %-14.0f",
			f.T.Seconds(), f.V/1e6, h.V/1e6, fw/1e3, hw/1e3)
	}
	res.Artifact.Addf("HTML5 receive-window-empty observations: %d (Flash: %d)", res.HTML5WindowZeroes, res.FlashWindowZeroes)
	return res
}

func downloadSeries(s *trace.Series, points int) []SeriesPoint {
	raw := s.Download
	out := make([]SeriesPoint, len(raw))
	for i, p := range raw {
		out[i] = SeriesPoint{T: p.TS, V: float64(p.Bytes)}
	}
	return resample(out, points)
}

func windowSeries(s *trace.Series, points int) ([]SeriesPoint, int) {
	var out []SeriesPoint
	zeroes := 0
	for _, wp := range s.Windows {
		out = append(out, SeriesPoint{T: wp.TS, V: float64(wp.Window)})
		if wp.Window == 0 {
			zeroes++
		}
	}
	return resample(out, points*4), zeroes
}

// resample thins a series to about n points, keeping endpoints.
func resample(s []SeriesPoint, n int) []SeriesPoint {
	if len(s) <= n || n <= 0 {
		return s
	}
	out := make([]SeriesPoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s[i*(len(s)-1)/(n-1)])
	}
	return out
}

func sampleAt(s []SeriesPoint, t time.Duration) float64 {
	v := 0.0
	for _, p := range s {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// Figure3Result covers buffering-phase measurements (Figure 3).
type Figure3Result struct {
	// PlaybackCDF maps network name to the CDF of buffered playback
	// seconds for Flash videos (Figure 3a).
	PlaybackCDF map[string]*stats.CDF
	// FlashCorrelation is corr(encoding rate, buffered bytes) for
	// Flash (the paper: 0.85).
	FlashCorrelation float64
	// HTML5Scatter is (encoding rate Mbps, buffering MB) for HTML5 on
	// IE (Figure 3b).
	HTML5Scatter [][2]float64
	// HTML5Correlation is the paper's weak 0.41.
	HTML5Correlation float64
	Artifact         Artifact
}

// Figure3 measures the buffering phase across the four networks.
func Figure3(o Options) *Figure3Result {
	o = o.withDefaults()
	res := &Figure3Result{
		PlaybackCDF: map[string]*stats.CDF{},
		Artifact:    Artifact{Title: "Figure 3: amount downloaded during the buffering phase"},
	}
	flash := sampleVideos(media.YouFlash(o.N*4, o.Seed), o.N)
	html := sampleVideos(media.YouHtml(o.N*4, o.Seed+100), o.N)
	var cfgs []session.Config
	for _, net := range netem.Profiles() {
		for i, v := range flash {
			cfgs = append(cfgs, sessionConfig(scenario.Flash, v, net, o.Seed+int64(i), o.Duration))
		}
	}
	for i, v := range html {
		cfgs = append(cfgs, sessionConfig(scenario.IEHtml5, v, netem.Research, o.Seed+200+int64(i), o.Duration))
	}
	results := runSessions(o, cfgs)

	var allRates, allBuf []float64
	k := 0
	for _, net := range netem.Profiles() {
		var playback []float64
		for _, v := range flash {
			a := results[k].Analysis
			k++
			if a.Media.EncodingRate <= 0 {
				continue
			}
			playback = append(playback, a.PlaybackBuffered())
			if net.Name == "Research" {
				allRates = append(allRates, v.EncodingRate)
				allBuf = append(allBuf, float64(a.BufferedBytes))
			}
		}
		res.PlaybackCDF[net.Name] = stats.NewCDF(playback)
	}
	res.FlashCorrelation = stats.Pearson(allRates, allBuf)

	var hRates, hBuf []float64
	for _, v := range html {
		a := results[k].Analysis
		k++
		res.HTML5Scatter = append(res.HTML5Scatter, [2]float64{v.EncodingRate / 1e6, mb(a.BufferedBytes)})
		hRates = append(hRates, v.EncodingRate)
		hBuf = append(hBuf, float64(a.BufferedBytes))
	}
	res.HTML5Correlation = stats.Pearson(hRates, hBuf)

	res.Artifact.Addf("(a) CDF of buffered playback time, Flash videos:")
	for _, net := range netem.Profiles() {
		c := res.PlaybackCDF[net.Name]
		res.Artifact.Addf("  %-10s median %.1f s (n=%d)", net.Name, c.Median(), c.N())
	}
	res.Artifact.Addf("  corr(encoding rate, buffered bytes) = %.2f (paper: 0.85)", res.FlashCorrelation)
	res.Artifact.Addf("(b) HTML5 on IE, buffering vs encoding rate (Research):")
	for _, p := range res.HTML5Scatter {
		res.Artifact.Addf("  %.2f Mbps -> %.1f MB", p[0], p[1])
	}
	res.Artifact.Addf("  corr = %.2f (paper: 0.41, weak)", res.HTML5Correlation)
	return res
}

// SteadyStateResult covers Figures 4 and 5: block-size and
// accumulation-ratio distributions per network.
type SteadyStateResult struct {
	BlockCDF map[string]*stats.CDF // kB
	AccumCDF map[string]*stats.CDF
	// DominantBlockKB is the modal block size across all networks.
	DominantBlockKB float64
	// MedianAccum is the median accumulation ratio on the clean
	// (Research) network; lossy networks inflate the measurement when
	// the buffering phase splits early — the paper reports the same
	// wide spread in Figure 5(b) and calls it a technique artifact.
	MedianAccum float64
	Artifact    Artifact
}

func steadyState(o Options, title string, videos []media.Video, kind scenario.PlayerKind) *SteadyStateResult {
	res := &SteadyStateResult{
		BlockCDF: map[string]*stats.CDF{},
		AccumCDF: map[string]*stats.CDF{},
		Artifact: Artifact{Title: title},
	}
	var cfgs []session.Config
	for _, net := range netem.Profiles() {
		for i, v := range videos {
			cfgs = append(cfgs, sessionConfig(kind, v, net, o.Seed+int64(i), o.Duration))
		}
	}
	results := runSessions(o, cfgs)
	var allBlocks, allAccum []float64
	k := 0
	for _, net := range netem.Profiles() {
		var blocks, accums []float64
		for range videos {
			a := results[k].Analysis
			k++
			for _, b := range a.Blocks {
				blocks = append(blocks, float64(b)/1e3)
			}
			if a.AccumulationRatio > 0 {
				accums = append(accums, a.AccumulationRatio)
			}
		}
		res.BlockCDF[net.Name] = stats.NewCDF(blocks)
		res.AccumCDF[net.Name] = stats.NewCDF(accums)
		allBlocks = append(allBlocks, blocks...)
		allAccum = append(allAccum, accums...)
	}
	h := stats.NewHistogram(allBlocks, 16) // 16 kB bins
	res.DominantBlockKB, _ = h.Mode()
	if c := res.AccumCDF["Research"]; c != nil && c.N() > 0 {
		res.MedianAccum = c.Median()
	} else {
		res.MedianAccum = stats.Median(allAccum)
	}
	_ = allAccum

	res.Artifact.Addf("%-10s %-18s %-18s %-16s", "Network", "median blk (kB)", "p90 blk (kB)", "median accum")
	for _, net := range netem.Profiles() {
		b, a := res.BlockCDF[net.Name], res.AccumCDF[net.Name]
		res.Artifact.Addf("%-10s %-18.0f %-18.0f %-16.2f", net.Name, b.Median(), b.Quantile(0.9), a.Median())
	}
	res.Artifact.Addf("dominant block %.0f kB, overall median accumulation %.2f", res.DominantBlockKB, res.MedianAccum)
	return res
}

// Figure4 measures the Flash steady state (64 kB blocks, accumulation
// 1.25).
func Figure4(o Options) *SteadyStateResult {
	o = o.withDefaults()
	videos := sampleVideos(media.YouFlash(o.N*4, o.Seed), o.N)
	return steadyState(o, "Figure 4: steady state for Flash videos", videos, scenario.Flash)
}

// Figure5 measures the HTML5-on-IE steady state (256 kB blocks,
// accumulation ~1.06).
func Figure5(o Options) *SteadyStateResult {
	o = o.withDefaults()
	videos := sampleVideos(media.YouHtml(o.N*4, o.Seed+1), o.N)
	return steadyState(o, "Figure 5: steady state for HTML5 videos on Internet Explorer", videos, scenario.IEHtml5)
}

// Figure6Result covers the long ON-OFF strategy.
type Figure6Result struct {
	// Download and window trace of one Chrome session (Figure 6a).
	Download []SeriesPoint
	Window   []SeriesPoint
	// BlockCDF per series label — Chrome on each network plus Android
	// on Research (Figure 6b), in MB.
	BlockCDF map[string]*stats.CDF
	// ShareLong is the fraction of blocks above 2.5 MB.
	ShareLong float64
	Artifact  Artifact
}

// Figure6 reproduces the long ON-OFF traces and block sizes.
func Figure6(o Options) *Figure6Result {
	o = o.withDefaults()
	res := &Figure6Result{BlockCDF: map[string]*stats.CDF{}, Artifact: Artifact{Title: "Figure 6: long ON-OFF cycles"}}

	tv := media.Video{ID: 24, EncodingRate: 1.2e6, Duration: 600 * time.Second, Container: media.HTML5, Resolution: "360p"}
	videos := sampleVideos(media.YouHtml(o.N*4, o.Seed+2), o.N)
	mob := sampleVideos(media.YouMob(o.N*4, o.Seed+3), o.N)
	cfgs := []session.Config{sessionConfig(scenario.ChromeHtml5, tv, netem.Research, o.Seed, o.Duration)}
	curve := seriesOf(&cfgs[0])
	for _, net := range netem.Profiles() {
		for i, v := range videos {
			cfgs = append(cfgs, sessionConfig(scenario.ChromeHtml5, v, net, o.Seed+int64(i), o.Duration))
		}
	}
	for i, v := range mob {
		cfgs = append(cfgs, sessionConfig(scenario.AndroidYouTube, v, netem.Research, o.Seed+500+int64(i), o.Duration))
	}
	results := runSessions(o, cfgs)

	res.Download = downloadSeries(curve, 40)
	res.Window, _ = windowSeries(curve, 40)

	long, total := 0, 0
	k := 1
	for _, net := range netem.Profiles() {
		var blocks []float64
		for range videos {
			for _, b := range results[k].Analysis.Blocks {
				blocks = append(blocks, mb(b))
				total++
				if b >= analysis.LongCycleBytes {
					long++
				}
			}
			k++
		}
		res.BlockCDF["Chrome/"+net.Name] = stats.NewCDF(blocks)
	}
	var blocks []float64
	for range mob {
		for _, b := range results[k].Analysis.Blocks {
			blocks = append(blocks, mb(b))
			total++
			if b >= analysis.LongCycleBytes {
				long++
			}
		}
		k++
	}
	res.BlockCDF["Android/Research"] = stats.NewCDF(blocks)
	if total > 0 {
		res.ShareLong = float64(long) / float64(total)
	}

	res.Artifact.Addf("(a) Chrome trace: %d download points, OFF periods tens of seconds", len(res.Download))
	res.Artifact.Addf("(b) block sizes:")
	// Fixed label order: map iteration would make the artifact differ
	// from run to run, breaking byte-identity checks.
	labels := make([]string, 0, len(res.BlockCDF))
	for _, net := range netem.Profiles() {
		labels = append(labels, "Chrome/"+net.Name)
	}
	labels = append(labels, "Android/Research")
	for _, label := range labels {
		if c := res.BlockCDF[label]; c != nil && c.N() > 0 {
			res.Artifact.Addf("  %-18s median %.1f MB p10 %.1f MB (n=%d)", label, c.Median(), c.Quantile(0.1), c.N())
		}
	}
	res.Artifact.Addf("share of blocks > 2.5 MB: %.0f%%", res.ShareLong*100)
	return res
}

// Figure7Result covers the iPad behaviour.
type Figure7Result struct {
	// Video1/Video2 download traces (Figure 7a).
	Video1, Video2 []SeriesPoint
	Conns1, Conns2 int
	// BlockVsRate is (encoding rate Mbps, mean block kB) over the
	// YouMob sample (Figure 7b).
	BlockVsRate [][2]float64
	Correlation float64
	Artifact    Artifact
}

// Figure7 reproduces the iPad's mixed strategies.
func Figure7(o Options) *Figure7Result {
	o = o.withDefaults()
	res := &Figure7Result{Artifact: Artifact{Title: "Figure 7: streaming strategies for YouTube on iPad"}}
	v1 := media.Video{ID: 25, EncodingRate: 2.5e6, Duration: 500 * time.Second, Container: media.HTML5, Resolution: "360p"}
	v2 := media.Video{ID: 26, EncodingRate: 0.4e6, Duration: 500 * time.Second, Container: media.HTML5, Resolution: "240p"}
	sample := sampleVideos(media.YouMob(o.N*4, o.Seed+4), o.N)
	cfgs := []session.Config{
		sessionConfig(scenario.IPadYouTube, v1, netem.Research, o.Seed, o.Duration),
		sessionConfig(scenario.IPadYouTube, v2, netem.Research, o.Seed+1, o.Duration),
	}
	s1, s2 := seriesOf(&cfgs[0]), seriesOf(&cfgs[1])
	for i, v := range sample {
		cfgs = append(cfgs, sessionConfig(scenario.IPadYouTube, v, netem.Research, o.Seed+100+int64(i), o.Duration))
	}
	results := runSessions(o, cfgs)
	res.Video1 = downloadSeries(s1, 30)
	res.Video2 = downloadSeries(s2, 30)
	res.Conns1 = results[0].Analysis.ConnCount
	res.Conns2 = results[1].Analysis.ConnCount

	var rates, blocks []float64
	for i, v := range sample {
		r := results[2+i]
		bs := r.Analysis.Blocks
		if len(bs) == 0 {
			continue
		}
		var sum float64
		for _, b := range bs {
			sum += float64(b)
		}
		mean := sum / float64(len(bs))
		res.BlockVsRate = append(res.BlockVsRate, [2]float64{v.EncodingRate / 1e6, mean / 1e3})
		rates = append(rates, v.EncodingRate)
		blocks = append(blocks, mean)
	}
	res.Correlation = stats.Pearson(rates, blocks)

	res.Artifact.Addf("(a) Video1 (%.1f Mbps): %d connections; Video2 (%.1f Mbps): %d connections",
		v1.EncodingRate/1e6, res.Conns1, v2.EncodingRate/1e6, res.Conns2)
	res.Artifact.Addf("(b) mean block size vs encoding rate:")
	for _, p := range res.BlockVsRate {
		res.Artifact.Addf("  %.2f Mbps -> %.0f kB", p[0], p[1])
	}
	res.Artifact.Addf("corr(rate, block) = %.2f (paper: block size grows with the encoding rate)", res.Correlation)
	return res
}

// Figure8Result covers the no-ON-OFF strategy: download rate vs
// encoding rate.
type Figure8Result struct {
	// Scatter is (encoding rate Mbps, download rate Mbps).
	Scatter     [][2]float64
	Correlation float64
	// NoSteadyShare is the fraction of sessions with no steady state.
	NoSteadyShare float64
	Artifact      Artifact
}

// Figure8 streams HD videos (unpaced) and checks the decoupling.
func Figure8(o Options) *Figure8Result {
	o = o.withDefaults()
	res := &Figure8Result{Artifact: Artifact{Title: "Figure 8: no ON-OFF cycles (HD videos)"}}
	var rates, dl []float64
	noSteady := 0
	videos := sampleVideos(media.YouHD(o.N*4, o.Seed+5), o.N)
	cfgs := make([]session.Config, len(videos))
	for i, v := range videos {
		cfgs[i] = sessionConfig(scenario.Flash, v, netem.Research, o.Seed+int64(i), o.Duration)
	}
	results := runSessions(o, cfgs)
	for i, v := range videos {
		a := results[i].Analysis
		span := a.Duration.Seconds()
		if span <= 0 {
			continue
		}
		// Download rate over the active transfer (until the data ran
		// out or capture ended).
		var lastData time.Duration
		for _, c := range a.Cycles {
			lastData = c.End
		}
		if lastData <= 0 {
			continue
		}
		rate := float64(a.TotalBytes) * 8 / lastData.Seconds()
		res.Scatter = append(res.Scatter, [2]float64{v.EncodingRate / 1e6, rate / 1e6})
		rates = append(rates, v.EncodingRate)
		dl = append(dl, rate)
		if !a.HasSteadyState {
			noSteady++
		}
	}
	res.Correlation = stats.Pearson(rates, dl)
	res.NoSteadyShare = float64(noSteady) / float64(len(videos))
	for _, p := range res.Scatter {
		res.Artifact.Addf("%.2f Mbps encoded -> %.1f Mbps downloaded", p[0], p[1])
	}
	res.Artifact.Addf("corr(encoding rate, download rate) = %.2f (paper: uncorrelated)", res.Correlation)
	res.Artifact.Addf("sessions with no steady state: %.0f%%", res.NoSteadyShare*100)
	return res
}

// Figure9Result covers the ACK-clock measurement.
type Figure9Result struct {
	// FirstRTT maps application label to the CDF of bytes received in
	// the first RTT of steady-state ON periods (kB).
	FirstRTT map[string]*stats.CDF
	Artifact Artifact
}

// Figure9 measures the data received back-to-back at ON-period starts
// for each application. idleReset optionally enables the RFC 5681
// restart on the server, which restores the ACK clock — the ablation
// of the Section 5.1.5 discussion.
func Figure9(o Options, idleReset bool) *Figure9Result {
	o = o.withDefaults()
	title := "Figure 9: ACK clock (bytes in the first RTT of ON periods)"
	if idleReset {
		title += " [ablation: RFC 5681 idle reset ON]"
	}
	res := &Figure9Result{FirstRTT: map[string]*stats.CDF{}, Artifact: Artifact{Title: title}}

	flashV := media.Video{ID: 27, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	htmlV := media.Video{ID: 28, EncodingRate: 1e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
	mobV := media.Video{ID: 29, EncodingRate: 2e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}

	apps := []struct {
		label string
		video media.Video
		kind  scenario.PlayerKind
	}{
		{"Flash", flashV, scenario.Flash},
		{"Int. Explorer", htmlV, scenario.IEHtml5},
		{"Chrome", htmlV, scenario.ChromeHtml5},
		{"Android", htmlV, scenario.AndroidYouTube},
		{"iPad", mobV, scenario.IPadYouTube},
	}
	res.Artifact.Addf("%-15s %-14s %-14s %-8s", "Application", "median (kB)", "p90 (kB)", "samples")
	perApp := (o.N + 3) / 4
	var cfgs []session.Config
	for i, app := range apps {
		for j := 0; j < perApp; j++ {
			cfg := sessionConfig(app.kind, app.video, netem.Research, o.Seed+int64(i*10+j), o.Duration)
			cfg.ServerTCP = tcp.Config{IdleReset: idleReset}
			cfgs = append(cfgs, cfg)
		}
	}
	results := runSessions(o, cfgs)
	for i, app := range apps {
		var samples []float64
		for j := 0; j < perApp; j++ {
			for _, b := range results[i*perApp+j].Analysis.FirstRTTBytes {
				samples = append(samples, kb(b))
			}
		}
		c := stats.NewCDF(samples)
		res.FirstRTT[app.label] = c
		res.Artifact.Addf("%-15s %-14.0f %-14.0f %-8d", app.label, c.Median(), c.Quantile(0.9), c.N())
	}
	return res
}
