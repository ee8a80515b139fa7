package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
)

// Table1Cell is one (service, container, application) combination.
type Table1Cell struct {
	Service   string
	Container string
	App       string
	// Want is the strategy the paper reports (Table 1).
	Want analysis.Strategy
	// Got is the strategy our reproduction classifies.
	Got analysis.Strategy
}

// Table1Result is the full strategy matrix.
type Table1Result struct {
	Cells    []Table1Cell
	Artifact Artifact
}

// Matches counts cells whose classified strategy equals the paper's.
func (r *Table1Result) Matches() (ok, total int) {
	for _, c := range r.Cells {
		total++
		if c.Got == c.Want {
			ok++
		}
	}
	return ok, total
}

// Table1 reproduces the strategy matrix: every defined cell of
// Table 1 is streamed once and classified from its trace.
func Table1(o Options) *Table1Result {
	o = o.withDefaults()
	flashV := media.Video{ID: 11, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	hdV := media.Video{ID: 12, EncodingRate: 4e6, Duration: 240 * time.Second, Container: media.Flash, Resolution: "720p"}
	htmlV := media.Video{ID: 13, EncodingRate: 1e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
	mobV := media.Video{ID: 14, EncodingRate: 2e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
	netV := media.Video{ID: 15, EncodingRate: 3800e3, Duration: 40 * time.Minute, Container: media.Silverlight, Resolution: "adaptive"}

	// The browser only labels a Flash or Silverlight player (the paper
	// found those strategies browser-independent), so the browser rows
	// of each share one kind.
	type spec struct {
		kind      scenario.PlayerKind
		container string
		app       string
		video     media.Video
		network   netem.Profile
		want      analysis.Strategy
	}
	specs := []spec{
		// YouTube Flash: short ON-OFF regardless of browser.
		{scenario.Flash, "Flash", "Internet Explorer", flashV, netem.Research, analysis.ShortOnOff},
		{scenario.Flash, "Flash", "Mozilla Firefox", flashV, netem.Research, analysis.ShortOnOff},
		{scenario.Flash, "Flash", "Google Chrome", flashV, netem.Research, analysis.ShortOnOff},
		// YouTube HTML5: per-application.
		{scenario.IEHtml5, "HTML5", "Internet Explorer", htmlV, netem.Research, analysis.ShortOnOff},
		{scenario.FirefoxHtml5, "HTML5", "Mozilla Firefox", htmlV, netem.Research, analysis.NoOnOff},
		{scenario.ChromeHtml5, "HTML5", "Google Chrome", htmlV, netem.Research, analysis.LongOnOff},
		// YouTube Flash HD: bulk transfer in every browser.
		{scenario.Flash, "Flash HD", "Internet Explorer", hdV, netem.Research, analysis.NoOnOff},
		{scenario.Flash, "Flash HD", "Mozilla Firefox", hdV, netem.Research, analysis.NoOnOff},
		{scenario.Flash, "Flash HD", "Google Chrome", hdV, netem.Research, analysis.NoOnOff},
		// YouTube native apps.
		{scenario.IPadYouTube, "HTML5", "iOS (native)", mobV, netem.Research, analysis.MultipleOnOff},
		{scenario.AndroidYouTube, "HTML5", "Android (native)", htmlV, netem.Research, analysis.LongOnOff},
		// Netflix Silverlight on PCs: short, browser-independent.
		{scenario.SilverlightPC, "Silverlight", "Internet Explorer", netV, netem.Academic, analysis.ShortOnOff},
		{scenario.SilverlightPC, "Silverlight", "Mozilla Firefox", netV, netem.Academic, analysis.ShortOnOff},
		{scenario.SilverlightPC, "Silverlight", "Google Chrome", netV, netem.Academic, analysis.ShortOnOff},
		// Netflix native apps.
		{scenario.NetflixIPad, "Silverlight", "iOS (native)", netV, netem.Academic, analysis.ShortOnOff},
		{scenario.NetflixAndroid, "Silverlight", "Android (native)", netV, netem.Academic, analysis.LongOnOff},
	}

	res := &Table1Result{Artifact: Artifact{Title: "Table 1: streaming strategies by service, container and application"}}
	res.Artifact.Addf("%-9s %-12s %-20s %-14s %-14s", "Service", "Container", "Application", "Paper", "Reproduced")
	cfgs := make([]session.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = sessionConfig(s.kind, s.video, s.network, o.Seed+int64(i), o.Duration)
	}
	results := runSessions(o, cfgs)
	for i, s := range specs {
		got := results[i].Analysis.Strategy
		// The iPad's mixed behaviour reads as Multiple or Short
		// depending on which pull sizes dominate the 180 s window;
		// the paper itself files it under "Multiple".
		cell := Table1Cell{
			Service: s.kind.Service().String(), Container: s.container, App: s.app,
			Want: s.want, Got: got,
		}
		res.Cells = append(res.Cells, cell)
		res.Artifact.Addf("%-9s %-12s %-20s %-14s %-14s", cell.Service, cell.Container, cell.App, cell.Want, cell.Got)
	}
	ok, total := res.Matches()
	res.Artifact.Addf("agreement with the paper: %d/%d cells", ok, total)
	return res
}
