// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus its extensions and ablations. Each runner
// executes the necessary simulated sessions, computes the paper's
// metric, and returns both a printable artifact (the rows/series the
// paper reports) and structured values that the tests assert shape
// properties on. Registry lists every runner once, by id: cmd/vsweep
// runs it, the root bench suite times it as BenchmarkExperiment/<id>,
// and TestGoldenArtifacts pins its artifact at the entry's Golden scale
// in testdata/golden/<id>.golden.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/trace"
)

// Options scales the experiments. Zero values take defaults sized for
// benches; tests use smaller N.
type Options struct {
	// N is the number of videos sampled per dataset/cell. Default 8.
	N int
	// Seed drives all sampling.
	Seed int64
	// Duration is the per-session capture time. Default 180 s (the
	// paper's). Tests may shorten it.
	Duration time.Duration
	// Workers sizes the session worker pool; <= 0 means one worker
	// per CPU. Results are bit-identical for any value because every
	// session carries its own seed and results are consumed in
	// submission order.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Duration <= 0 {
		o.Duration = session.DefaultDuration
	}
	return o
}

// Artifact is a printable experiment output.
type Artifact struct {
	Title string
	lines []string
}

// Addf appends one formatted line.
func (a *Artifact) Addf(format string, args ...any) {
	a.lines = append(a.lines, fmt.Sprintf(format, args...))
}

func (a *Artifact) String() string {
	return "== " + a.Title + " ==\n" + strings.Join(a.lines, "\n") + "\n"
}

// pool returns the runner options for this experiment run.
func (o Options) pool() runner.Options { return runner.Options{Workers: o.Workers} }

// runSessions executes a batch of session configs on the experiment's
// worker pool, returning results in submission order.
func runSessions(o Options, cfgs []session.Config) []*session.Result {
	return runner.Sessions(o.pool(), cfgs)
}

// sessionConfig builds one session config: a fresh player of kind k
// streaming v over net. The service comes from the kind, so a config
// cannot pair a player with the other service's server.
func sessionConfig(k scenario.PlayerKind, v media.Video, net netem.Profile, seed int64, d time.Duration) session.Config {
	return session.Config{
		Video: v, Service: k.Service(), Player: k.New(),
		Network: net, Seed: seed, Duration: d,
	}
}

// seriesOf attaches a fresh trace.Series to cfg, for a session whose
// exact download and window curves a figure draws (points, not
// packets). Sessions a figure only summarizes attach nothing.
func seriesOf(cfg *session.Config) *trace.Series {
	s := &trace.Series{}
	cfg.Capture = s
	return s
}

// sampleVideos picks up to n videos deterministically from a dataset.
func sampleVideos(d media.Dataset, n int) []media.Video {
	if n >= len(d.Videos) {
		return d.Videos
	}
	out := make([]media.Video, 0, n)
	step := len(d.Videos) / n
	for i := 0; i < n; i++ {
		out = append(out, d.Videos[i*step])
	}
	return out
}

func mb(b int64) float64     { return float64(b) / 1e6 }
func kb(b int64) float64     { return float64(b) / 1e3 }
func mbps(b float64) float64 { return b / 1e6 }
