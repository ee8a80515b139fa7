package runner_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/runner"
	"repro/internal/session"
)

// TestMapOrderAndCoverage exercises batch sizes below, equal to and
// above the worker count: results must come back in submission order
// with every item processed exactly once.
func TestMapOrderAndCoverage(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{2, 4},  // fewer jobs than workers
		{4, 4},  // equal
		{13, 4}, // more jobs than workers
		{5, 1},  // sequential fallback
		{0, 4},  // empty batch
	} {
		items := make([]int, tc.n)
		for i := range items {
			items[i] = i * 10
		}
		out := runner.Map(runner.Options{Workers: tc.workers}, items, func(i int, item int) int {
			return item + i
		})
		if len(out) != tc.n {
			t.Fatalf("n=%d workers=%d: got %d results", tc.n, tc.workers, len(out))
		}
		for i, v := range out {
			if v != i*10+i {
				t.Fatalf("n=%d workers=%d: out[%d] = %d, want %d", tc.n, tc.workers, i, v, i*10+i)
			}
		}
	}
}

// TestSessionsDeterministicAcrossWorkerCounts runs the same seeded
// batch on pools of different sizes; every session result must be
// bit-identical because each config carries its own seed.
func TestSessionsDeterministicAcrossWorkerCounts(t *testing.T) {
	videos := []media.Video{
		{ID: 1, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"},
		{ID: 2, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.HTML5, Resolution: "360p"},
		{ID: 3, EncodingRate: 2e6, Duration: 240 * time.Second, Container: media.Flash, Resolution: "360p"},
	}
	build := func() []session.Config {
		return []session.Config{
			{Video: videos[0], Service: session.YouTube, Player: player.NewFlashPlayer(), Network: netem.Research, Seed: 11, Duration: 45 * time.Second},
			{Video: videos[1], Service: session.YouTube, Player: player.NewIEHtml5(), Network: netem.Residence, Seed: 12, Duration: 45 * time.Second},
			{Video: videos[2], Service: session.YouTube, Player: player.NewChromeHtml5(), Network: netem.Home, Seed: 13, Duration: 45 * time.Second},
		}
	}
	seq := runner.Sessions(runner.Options{Workers: 1}, build())
	par := runner.Sessions(runner.Options{Workers: 8}, build())
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Downloaded != b.Downloaded {
			t.Fatalf("session %d: downloaded %d (1 worker) vs %d (8 workers)", i, a.Downloaded, b.Downloaded)
		}
		if a.Packets != b.Packets {
			t.Fatalf("session %d: packet count %d vs %d", i, a.Packets, b.Packets)
		}
		if a.Analysis.Strategy != b.Analysis.Strategy {
			t.Fatalf("session %d: strategy %v vs %v", i, a.Analysis.Strategy, b.Analysis.Strategy)
		}
		if a.Analysis.TotalBytes != b.Analysis.TotalBytes {
			t.Fatalf("session %d: bytes %d vs %d", i, a.Analysis.TotalBytes, b.Analysis.TotalBytes)
		}
	}
}

// testOpts builds experiment options sized for a fast but meaningful
// byte-identity check.
func testOpts(workers int) experiments.Options {
	return experiments.Options{N: 2, Seed: 3, Duration: 40 * time.Second, Workers: workers}
}

// TestTable1ArtifactByteIdentical is the tentpole's hard constraint:
// the printable Table 1 artifact must not change with the pool size.
func TestTable1ArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq := experiments.Table1(testOpts(1)).Artifact.String()
	par := experiments.Table1(testOpts(8)).Artifact.String()
	if seq != par {
		t.Fatalf("Table1 artifact differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestFigure2ArtifactByteIdentical covers a figure with interleaved
// series output.
func TestFigure2ArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq := experiments.Figure2(testOpts(1)).Artifact.String()
	par := experiments.Figure2(testOpts(8)).Artifact.String()
	if seq != par {
		t.Fatalf("Figure2 artifact differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestScenarioRateDropArtifactByteIdentical extends the worker-count
// invariant to the dynamics scenarios: timelines fire through the same
// per-session schedulers, so the artifact must not depend on the pool.
func TestScenarioRateDropArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq := experiments.ScenarioRateDrop(testOpts(1)).Artifact.String()
	par := experiments.ScenarioRateDrop(testOpts(8)).Artifact.String()
	if seq != par {
		t.Fatalf("ScenarioRateDrop artifact differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestScenarioFlashCrowdArtifactByteIdentical covers the
// shared-bottleneck (session.Shared) path: each strategy is one
// single-threaded simulation, fanned out per strategy, so the crowd
// artifact must also be pool-size independent.
func TestScenarioFlashCrowdArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq := experiments.ScenarioFlashCrowd(testOpts(1)).Artifact.String()
	par := experiments.ScenarioFlashCrowd(testOpts(8)).Artifact.String()
	if seq != par {
		t.Fatalf("ScenarioFlashCrowd artifact differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestAggregateLossArtifactByteIdentical covers the hand-wired shared
// bottleneck (a netem.Path with a Switch on its client side) across
// worker counts.
func TestAggregateLossArtifactByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq := experiments.AggregateLoss(testOpts(1)).Artifact.String()
	par := experiments.AggregateLoss(testOpts(8)).Artifact.String()
	if seq != par {
		t.Fatalf("AggregateLoss artifact differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// mixedBatch returns n 30 s sessions, each with its own seed, cycling
// through Flash, Firefox and Silverlight on Research and Residence.
func mixedBatch(n int) []session.Config {
	flash := media.Video{ID: 1, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash, Resolution: "360p"}
	html5 := media.Video{ID: 2, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.HTML5, Resolution: "360p"}
	netflix := media.Video{ID: 3, EncodingRate: 3800e3, Duration: 40 * time.Minute, Container: media.Silverlight, Resolution: "adaptive"}
	cfgs := make([]session.Config, n)
	for i := range cfgs {
		c := session.Config{Service: session.YouTube, Network: netem.Research, Seed: int64(100 + i), Duration: 30 * time.Second}
		if i%2 == 1 {
			c.Network = netem.Residence
		}
		switch i / 2 % 3 {
		case 0:
			c.Video, c.Player = flash, player.NewFlashPlayer()
		case 1:
			c.Video, c.Player = html5, player.NewFirefoxHtml5()
		default:
			c.Video, c.Player, c.Service = netflix, player.NewSilverlightPC(), session.Netflix
		}
		cfgs[i] = c
	}
	return cfgs
}

// liveHeapGrowth runs cfgs through runner.Sessions and returns how far
// the live heap grew by the time the batch returned, with the results.
func liveHeapGrowth(cfgs []session.Config) (int64, []*session.Result) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := int64(m.HeapAlloc)
	res := runner.Sessions(runner.Options{Workers: 2}, cfgs)
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc) - before, res
}

// TestSessionsHoldNoFinishedWorlds bounds what a finished batch keeps:
// with every config and result held, each extra session may add at
// most 32 KB of live heap (its player, result and analysis), not its
// whole world. The 6-session growth can be negative, so the arithmetic
// is signed.
func TestSessionsHoldNoFinishedWorlds(t *testing.T) {
	small, large := mixedBatch(6), mixedBatch(30)
	dSmall, resSmall := liveHeapGrowth(small)
	dLarge, resLarge := liveHeapGrowth(large)
	per := (dLarge - dSmall) / int64(len(large)-len(small))
	t.Logf("live heap: %+d B for %d sessions, %+d B for %d; %d B per extra session", dSmall, len(small), dLarge, len(large), per)
	if per > 32<<10 {
		t.Fatalf("a finished session keeps %d B of live heap, want at most %d", per, 32<<10)
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(large)
	runtime.KeepAlive(resSmall)
	runtime.KeepAlive(resLarge)
}
