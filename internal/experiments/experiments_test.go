package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// testOpts keeps test runtimes reasonable: fewer videos and shorter
// captures than the benches, still enough for the shape assertions.
func testOpts() Options {
	return Options{N: 4, Seed: 3, Duration: 120 * time.Second}
}

func TestTable1MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Table1(testOpts())
	ok, total := res.Matches()
	if total != 16 {
		t.Fatalf("expected 16 cells, got %d", total)
	}
	// Allow at most one divergent cell (the iPad's Multiple/Short
	// boundary is genuinely fuzzy in the paper too).
	if ok < total-1 {
		t.Fatalf("only %d/%d cells match the paper:\n%s", ok, total, res.Artifact.String())
	}
	if !strings.Contains(res.Artifact.String(), "Flash") {
		t.Fatal("artifact must render the matrix")
	}
}

func TestFigure1Phases(t *testing.T) {
	res := Figure1(testOpts())
	if res.BufferingEnd <= 0 || res.BufferedBytes <= 0 {
		t.Fatalf("no buffering phase: %+v", res)
	}
	if res.Blocks == 0 {
		t.Fatal("no steady-state cycles")
	}
	if res.Accumulation < 1.0 || res.Accumulation > 1.5 {
		t.Fatalf("accumulation = %.2f, want ~1.25", res.Accumulation)
	}
}

func TestFigure2WindowSignature(t *testing.T) {
	res := Figure2(testOpts())
	if len(res.FlashDownload) == 0 || len(res.HTML5Download) == 0 {
		t.Fatal("missing download series")
	}
	// IE/HTML5 closes its receive window periodically; Flash does not.
	if res.HTML5WindowZeroes == 0 {
		t.Fatal("HTML5 on IE must show receive-window-empty events (client pull pacing)")
	}
	if res.FlashWindowZeroes > res.HTML5WindowZeroes/10 {
		t.Fatalf("Flash shows %d window zeroes vs HTML5 %d; server pacing should keep the window open",
			res.FlashWindowZeroes, res.HTML5WindowZeroes)
	}
}

func TestFigure3BufferingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure3(testOpts())
	// Flash: ~40 s of playback buffered in every network.
	for name, c := range res.PlaybackCDF {
		if c.N() == 0 {
			t.Fatalf("%s: no samples", name)
		}
		if m := c.Median(); m < 25 || m > 55 {
			t.Errorf("%s: median buffered playback %.1f s, want ~40", name, m)
		}
	}
	// Strong correlation for Flash, weak for HTML5.
	if res.FlashCorrelation < 0.7 {
		t.Errorf("Flash corr = %.2f, want strong (paper 0.85)", res.FlashCorrelation)
	}
	if math.Abs(res.HTML5Correlation) > 0.6 {
		t.Errorf("HTML5 corr = %.2f, want weak (paper 0.41)", res.HTML5Correlation)
	}
	// HTML5 buffering tops out at 10-15 MB regardless of rate (short
	// videos can be smaller than the target — they download fully).
	atTarget := 0
	for _, p := range res.HTML5Scatter {
		if p[1] > 18 {
			t.Errorf("HTML5 buffering %.1f MB at %.2f Mbps, want <= 15 MB", p[1], p[0])
		}
		if p[1] >= 8 {
			atTarget++
		}
	}
	if atTarget == 0 {
		t.Error("no HTML5 session reached the 10-15 MB buffering target")
	}
}

func TestFigure4FlashSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure4(testOpts())
	// 64 kB dominant block size.
	if res.DominantBlockKB < 48 || res.DominantBlockKB > 90 {
		t.Fatalf("dominant block = %.0f kB, want ~64\n%s", res.DominantBlockKB, res.Artifact.String())
	}
	if res.MedianAccum < 1.1 || res.MedianAccum > 1.4 {
		t.Fatalf("median accumulation = %.2f, want ~1.25", res.MedianAccum)
	}
	// Lossy networks show larger spread (merged cycles) but the
	// median must stay near 64 kB everywhere.
	for name, c := range res.BlockCDF {
		if c.N() == 0 {
			continue
		}
		if m := c.Median(); m < 40 || m > 160 {
			t.Errorf("%s: median block %.0f kB, want near 64", name, m)
		}
	}
}

func TestFigure5Html5SteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure5(testOpts())
	if res.DominantBlockKB < 200 || res.DominantBlockKB > 330 {
		t.Fatalf("dominant block = %.0f kB, want ~256\n%s", res.DominantBlockKB, res.Artifact.String())
	}
	if res.MedianAccum < 0.95 || res.MedianAccum > 1.2 {
		t.Fatalf("median accumulation = %.2f, want ~1.06", res.MedianAccum)
	}
}

func TestFigure6LongCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure6(testOpts())
	if res.ShareLong < 0.6 {
		t.Fatalf("only %.0f%% of blocks exceed 2.5 MB; long ON-OFF should dominate\n%s",
			res.ShareLong*100, res.Artifact.String())
	}
	for label, c := range res.BlockCDF {
		if c.N() == 0 {
			continue
		}
		if m := c.Median(); m < 2.5 {
			t.Errorf("%s: median block %.1f MB, want > 2.5", label, m)
		}
	}
}

func TestFigure7IPad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure7(testOpts())
	// Video1 (high rate) uses many connections.
	if res.Conns1 < 8 {
		t.Fatalf("Video1 used %d connections, want many", res.Conns1)
	}
	// Block size grows with the encoding rate.
	if res.Correlation < 0.6 {
		t.Fatalf("corr(rate, block) = %.2f, want clearly positive\n%s", res.Correlation, res.Artifact.String())
	}
}

func TestFigure8Decoupled(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure8(testOpts())
	if res.NoSteadyShare < 0.9 {
		t.Fatalf("HD sessions with no steady state = %.0f%%, want ~all", res.NoSteadyShare*100)
	}
	// Download rate must not track the encoding rate; it should sit
	// near the line rate instead.
	if res.Correlation > 0.5 {
		t.Fatalf("corr = %.2f, want decoupled", res.Correlation)
	}
	for _, p := range res.Scatter {
		if p[1] < 3*p[0] {
			t.Errorf("download %.1f Mbps at enc %.1f Mbps: bulk transfer should run far above the encoding rate", p[1], p[0])
		}
	}
}

func TestFigure9AckClockAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := testOpts()
	off := Figure9(o, false)
	on := Figure9(o, true)
	// Without idle reset, the Flash server blasts the whole 64 kB
	// block in the first RTT.
	flashOff := off.FirstRTT["Flash"]
	if flashOff.N() == 0 || flashOff.Median() < 48 {
		t.Fatalf("Flash first-RTT median = %.0f kB, want ~64 (no ACK clock)", flashOff.Median())
	}
	// With RFC 5681 idle reset, the restart window bounds the burst.
	flashOn := on.FirstRTT["Flash"]
	if flashOn.N() == 0 || flashOn.Median() >= flashOff.Median() {
		t.Fatalf("idle reset must shrink the first-RTT burst: %.0f kB vs %.0f kB",
			flashOn.Median(), flashOff.Median())
	}
	// Applications with larger blocks show larger first-RTT bursts
	// (the Figure 9 per-application separation).
	chrome := off.FirstRTT["Chrome"]
	if chrome.N() > 0 && chrome.Median() <= flashOff.Median() {
		t.Errorf("Chrome first-RTT %.0f kB should exceed Flash %.0f kB", chrome.Median(), flashOff.Median())
	}
}

func TestFigure10NetflixTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure10(testOpts())
	if res.PCStrategy != analysis.ShortOnOff || res.IPadStrategy != analysis.ShortOnOff {
		t.Fatalf("PC=%v iPad=%v, want Short ON-OFF", res.PCStrategy, res.IPadStrategy)
	}
	if res.AndroidStrategy != analysis.LongOnOff {
		t.Fatalf("Android=%v, want Long ON-OFF", res.AndroidStrategy)
	}
	if res.PCConns < 5 || res.AndConns != 1 {
		t.Fatalf("conns: PC=%d (want many) Android=%d (want 1)", res.PCConns, res.AndConns)
	}
}

func TestFigure11NetflixBuffering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure11(testOpts())
	pc := res.Buffering["PC/Academic"].Median()
	ipad := res.Buffering["iPad/Academic"].Median()
	android := res.Buffering["Android/Academic"].Median()
	// Ordering: PC (~50 MB) > Android (~40 MB) > iPad (~10 MB).
	if !(pc > android && android > ipad) {
		t.Fatalf("buffering ordering violated: PC=%.1f Android=%.1f iPad=%.1f\n%s",
			pc, android, ipad, res.Artifact.String())
	}
	if pc < 30 || pc > 70 {
		t.Errorf("PC buffering %.1f MB, want ~50", pc)
	}
	if ipad < 5 || ipad > 20 {
		t.Errorf("iPad buffering %.1f MB, want ~10", ipad)
	}
	if android < 25 || android > 55 {
		t.Errorf("Android buffering %.1f MB, want ~40", android)
	}
}

func TestFigure12NetflixBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Figure12(testOpts())
	pc := res.Blocks["PC/Academic"]
	android := res.Blocks["Android/Academic"]
	if pc.N() == 0 || android.N() == 0 {
		t.Fatal("missing block samples")
	}
	// PC blocks below 2.5 MB but above YouTube's 64/256 kB.
	if m := pc.Median(); m < 0.5 || m >= 2.5 {
		t.Fatalf("PC median block %.2f MB, want in (0.5, 2.5)", m)
	}
	// Android blocks are long-cycle sized.
	if m := android.Median(); m < 2.5 {
		t.Fatalf("Android median block %.2f MB, want > 2.5", m)
	}
}

func TestTable2Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Table2(testOpts())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	no, long, short := res.Rows[0], res.Rows[1], res.Rows[2]
	// Table 2's ordering: buffer occupancy and unused bytes are
	// Large (No) > Moderate (Long) > Small (Short).
	if !(no.MaxAheadMB > long.MaxAheadMB && long.MaxAheadMB > short.MaxAheadMB) {
		t.Fatalf("buffer-ahead ordering violated:\n%s", res.Artifact.String())
	}
	if !(no.UnusedMB > long.UnusedMB && long.UnusedMB > short.UnusedMB) {
		t.Fatalf("unused-bytes ordering violated:\n%s", res.Artifact.String())
	}
}

func TestModelExperiments(t *testing.T) {
	o := testOpts()
	agg := ModelAggregate(o)
	if agg.MaxMeanErr > 0.1 || agg.MaxVarErr > 0.3 {
		t.Fatalf("model validation errors too large: mean %.1f%% var %.1f%%",
			agg.MaxMeanErr*100, agg.MaxVarErr*100)
	}
	sm := ModelSmoothness(o)
	for i := 1; i < len(sm.CoV); i++ {
		if sm.CoV[i] >= sm.CoV[i-1] {
			t.Fatalf("CoV must fall with encoding rate: %v", sm.CoV)
		}
	}
	mi := ModelInterruption(o)
	if math.Abs(mi.WorkedExample-53.333) > 0.01 {
		t.Fatalf("worked example = %v", mi.WorkedExample)
	}
	mw := ModelWaste(o)
	if len(mw.Rows) != 3 {
		t.Fatal("waste rows")
	}
	// Ordering: short ON-OFF wastes least, bulk wastes most.
	if !(mw.Rows[2].WasteMbps > mw.Rows[1].WasteMbps && mw.Rows[1].WasteMbps > mw.Rows[0].WasteMbps) {
		t.Fatalf("waste ordering violated:\n%s", mw.Artifact.String())
	}
}

func TestArtifactRendering(t *testing.T) {
	a := Artifact{Title: "T"}
	a.Addf("x=%d", 1)
	s := a.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "x=1") {
		t.Fatalf("artifact = %q", s)
	}
}

func TestSampleVideosBounds(t *testing.T) {
	o := testOpts()
	vids := netflixSample(o)
	if len(vids) != o.N {
		t.Fatalf("sample size %d, want %d", len(vids), o.N)
	}
}
