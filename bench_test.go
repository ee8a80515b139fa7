// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see the README's architecture map):
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiment runs each registered experiment at paper scale
// (180 s captures) and prints the rows/series the paper reports on its
// first iteration, so a bench run doubles as the reproduction log; the
// small-scale artifacts are pinned under
// internal/experiments/testdata/golden.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// benchOpts is the paper-scale configuration: 180 s captures, a
// handful of videos per cell (the distributions stabilize quickly; the
// cmd/vsweep tool runs larger samples).
func benchOpts() experiments.Options {
	return experiments.Options{N: 8, Seed: 1}
}

var printOnce sync.Map

// emit prints an artifact once per benchmark name.
func emit(b *testing.B, artifact fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Print(artifact.String())
		fmt.Println()
	}
}

// BenchmarkSingleSession tracks the per-session hot-path cost
// (scheduler + link + TCP event machinery) with allocation stats: one
// 180 s Flash capture on the Research profile: the online analyzer at
// the tap, segment pool on, no Capture sink attached.
func BenchmarkSingleSession(b *testing.B) {
	v := media.Video{ID: 99, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		session.Run(session.Config{
			Video: v, Service: session.YouTube,
			Player:  player.NewFlashPlayer("Internet Explorer"),
			Network: netem.Research, Seed: 7,
		})
	}
}

// benchSingleSessionCC is BenchmarkSingleSession with the server's
// congestion controller swapped — the per-CC hot-path cost. The CI
// perf smoke compares these against BenchmarkSingleSession (Reno):
// a controller is only mergeable if it does not regress allocs/op.
func benchSingleSessionCC(b *testing.B, cc string) {
	v := media.Video{ID: 99, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		session.Run(session.Config{
			Video: v, Service: session.YouTube,
			Player:  player.NewFlashPlayer("Internet Explorer"),
			Network: netem.Research, Seed: 7,
			ServerTCP: tcp.Config{CC: cc},
		})
	}
}

func BenchmarkSingleSessionCubic(b *testing.B) { benchSingleSessionCC(b, tcp.CCCubic) }

func BenchmarkSingleSessionBbr(b *testing.B) { benchSingleSessionCC(b, tcp.CCBbr) }

// BenchmarkSingleSessionPcap is the same session exporting its capture:
// a trace.PcapSink on io.Discard rides the tap after the analyzer, so
// the B/op and allocs/op gap to BenchmarkSingleSession is the cost of
// pcap export.
func BenchmarkSingleSessionPcap(b *testing.B) {
	v := media.Video{ID: 99, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps, err := trace.NewPcapSink(io.Discard, 0)
		if err != nil {
			b.Fatal(err)
		}
		session.Run(session.Config{
			Video: v, Service: session.YouTube,
			Player:  player.NewFlashPlayer("Internet Explorer"),
			Network: netem.Research, Seed: 7, Capture: ps,
		})
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment runs every registered experiment at benchOpts
// scale, one sub-benchmark per id in experiments.Registry() order
// (`vsweep -list` prints the ids):
//
//	go test -run '^$' -bench 'BenchmarkExperiment/<id>' -benchtime 1x .
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				emit(b, e.Run(benchOpts()))
			}
		})
	}
}

// BenchmarkFleet tracks the fleet engine's scaling law: a mixed
// Short/No ON-OFF fleet on the multi-tier tree at growing client
// counts, fixed 30 s horizon. The claim under test is the memory
// regime — B/op must grow ~linearly with the client count (per-client
// slim state, sketches and fixed-width bins), never with the packet
// count. ns/op grows with carried traffic, which is client-linear
// here too. The normalized ns/op/client and B/op/client columns make
// the per-client cost comparable across the client counts (and across
// BENCH_<n>.json files): flat normalized columns = linear scaling.
// events/op and hops/op are the scheduler's deterministic work counts
// per run: queue events dispatched and lane records retired (one per
// link hop).
func BenchmarkFleet(b *testing.B) {
	for _, clients := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			f := scenario.Fleet{
				Mix:      []scenario.MixEntry{{Player: scenario.Flash, Weight: 1}, {Player: scenario.FirefoxHtml5, Weight: 1}},
				Clients:  clients,
				Duration: 30 * time.Second,
				Arrival:  scenario.Arrival{Kind: scenario.Staggered, Window: 10 * time.Second},
				Seed:     7,
			}
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			alloc0 := ms.TotalAlloc
			var offered int
			var work scenario.SimWork
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, w := scenario.RunFleetWork(runner.Options{Workers: 1}, f)
				offered, work = res.CoreOffered, w
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			perOpClient := float64(b.N) * float64(clients)
			b.ReportMetric(float64(offered)/float64(clients), "pkts/client")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perOpClient, "ns/op/client")
			b.ReportMetric(float64(ms.TotalAlloc-alloc0)/perOpClient, "B/op/client")
			b.ReportMetric(float64(work.Events), "events/op")
			b.ReportMetric(float64(work.Retires), "hops/op")
		})
	}
}
