package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/stats"
)

// netflixSample builds the NetPC/NetMob samples.
func netflixSample(o Options) []media.Video {
	return sampleVideos(media.NetPC(o.N*4, o.Seed+7), o.N)
}

// netflixClients is the client table of Figures 11 and 12: one series
// label per client kind and network.
var netflixClients = []struct {
	label string
	net   netem.Profile
	kind  scenario.PlayerKind
}{
	{"PC/Academic", netem.Academic, scenario.SilverlightPC},
	{"PC/Home", netem.Home, scenario.SilverlightPC},
	{"iPad/Academic", netem.Academic, scenario.NetflixIPad},
	{"Android/Academic", netem.Academic, scenario.NetflixAndroid},
}

// runNetflixClients streams the NetPC sample with every netflixClients
// entry and returns the sample size and the results, client-major.
func runNetflixClients(o Options) (videos int, results []*session.Result) {
	vids := netflixSample(o)
	var cfgs []session.Config
	for si, s := range netflixClients {
		for i, v := range vids {
			cfgs = append(cfgs, sessionConfig(s.kind, v, s.net, o.Seed+int64(si*100+i), o.Duration))
		}
	}
	return len(vids), runSessions(o, cfgs)
}

// Figure10Result holds the representative Netflix traces.
type Figure10Result struct {
	PC, IPad, Android            []SeriesPoint
	PCStrategy, IPadStrategy     analysis.Strategy
	AndroidStrategy              analysis.Strategy
	PCConns, IPadConns, AndConns int
	Artifact                     Artifact
}

// Figure10 reproduces the Netflix download-evolution traces in the
// Academic network.
func Figure10(o Options) *Figure10Result {
	o = o.withDefaults()
	v := media.Video{ID: 31, EncodingRate: 3800e3, Duration: 45 * time.Minute, Container: media.Silverlight, Resolution: "adaptive"}
	cfgs := []session.Config{
		sessionConfig(scenario.SilverlightPC, v, netem.Academic, o.Seed, o.Duration),
		sessionConfig(scenario.NetflixIPad, v, netem.Academic, o.Seed+1, o.Duration),
		sessionConfig(scenario.NetflixAndroid, v, netem.Academic, o.Seed+2, o.Duration),
	}
	pcSeries, ipSeries, anSeries := seriesOf(&cfgs[0]), seriesOf(&cfgs[1]), seriesOf(&cfgs[2])
	rs := runSessions(o, cfgs)
	pc, ip, an := rs[0], rs[1], rs[2]

	res := &Figure10Result{
		PC: downloadSeries(pcSeries, 30), IPad: downloadSeries(ipSeries, 30), Android: downloadSeries(anSeries, 30),
		PCStrategy: pc.Analysis.Strategy, IPadStrategy: ip.Analysis.Strategy, AndroidStrategy: an.Analysis.Strategy,
		PCConns: pc.Analysis.ConnCount, IPadConns: ip.Analysis.ConnCount, AndConns: an.Analysis.ConnCount,
		Artifact: Artifact{Title: "Figure 10: streaming strategies used by Netflix (Academic)"},
	}
	res.Artifact.Addf("(a) PC:   %s, %d conns, %.1f MB in %d s", res.PCStrategy, res.PCConns, lastMB(res.PC), int(o.Duration.Seconds()))
	res.Artifact.Addf("    iPad: %s, %d conns, %.1f MB", res.IPadStrategy, res.IPadConns, lastMB(res.IPad))
	res.Artifact.Addf("(b) Android: %s, %d conns, %.1f MB", res.AndroidStrategy, res.AndConns, lastMB(res.Android))
	return res
}

func lastMB(s []SeriesPoint) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].V / 1e6
}

// Figure11Result holds the Netflix buffering-amount distributions.
type Figure11Result struct {
	// Buffering maps series label to the CDF of buffering amounts in
	// MB: PC/Academic, PC/Home, iPad/Academic (a); Android/Academic (b).
	Buffering map[string]*stats.CDF
	Artifact  Artifact
}

// Figure11 measures Netflix buffering amounts per application.
func Figure11(o Options) *Figure11Result {
	o = o.withDefaults()
	res := &Figure11Result{Buffering: map[string]*stats.CDF{}, Artifact: Artifact{Title: "Figure 11: Netflix buffering amounts"}}
	n, results := runNetflixClients(o)
	for si, s := range netflixClients {
		var buf []float64
		for _, r := range results[si*n : (si+1)*n] {
			buf = append(buf, mb(r.Analysis.BufferedBytes))
		}
		res.Buffering[s.label] = stats.NewCDF(buf)
		res.Artifact.Addf("%-18s median %.1f MB (n=%d)", s.label, res.Buffering[s.label].Median(), len(buf))
	}
	return res
}

// Figure12Result holds the Netflix block-size distributions.
type Figure12Result struct {
	Blocks   map[string]*stats.CDF // MB
	Artifact Artifact
}

// Figure12 measures Netflix steady-state block sizes per application.
func Figure12(o Options) *Figure12Result {
	o = o.withDefaults()
	res := &Figure12Result{Blocks: map[string]*stats.CDF{}, Artifact: Artifact{Title: "Figure 12: Netflix block sizes"}}
	n, results := runNetflixClients(o)
	for si, s := range netflixClients {
		var blocks []float64
		for _, r := range results[si*n : (si+1)*n] {
			for _, b := range r.Analysis.Blocks {
				blocks = append(blocks, mb(b))
			}
		}
		res.Blocks[s.label] = stats.NewCDF(blocks)
		if res.Blocks[s.label].N() > 0 {
			res.Artifact.Addf("%-18s median %.2f MB p90 %.2f MB (n=%d)",
				s.label, res.Blocks[s.label].Median(), res.Blocks[s.label].Quantile(0.9), res.Blocks[s.label].N())
		}
	}
	return res
}
