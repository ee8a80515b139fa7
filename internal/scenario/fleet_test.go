package scenario

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// detFleet is the fleet the determinism suite runs: the acceptance
// scale (1,000 clients outside -race) on the default multi-tier tree,
// spanning dozens of cells so the merge path actually exercises
// cross-cell folding.
func detFleet() Fleet {
	return Fleet{
		Mix:      []MixEntry{{Player: Flash, Weight: 1}, {Player: FirefoxHtml5, Weight: 1}},
		Clients:  fleetDetClients,
		Duration: 15 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 8 * time.Second},
		Seed:     11,
	}
}

// TestFleetDeterministicAcrossWorkers: a multi-cell fleet produces a
// bit-identical FleetResult for one worker and one worker per CPU —
// the runner determinism guarantee extended to the fleet merge path.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	f := detFleet()
	seq := RunFleet(runner.Options{Workers: 1}, f)
	par := RunFleet(runner.Options{Workers: runtime.NumCPU() + 3}, f)
	if seq.Clients != f.Clients {
		t.Fatalf("ran %d clients, want %d", seq.Clients, f.Clients)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fleet result differs between worker counts:\nseq: %s\npar: %s",
			seq.Render(), par.Render())
	}
	if seq.ActiveClients == 0 || seq.Downloaded == 0 {
		t.Fatalf("fleet streamed nothing: %s", seq.Render())
	}
	if seq.Unrouted != 0 {
		t.Fatalf("unrouted packets in a fully attached tree: %d", seq.Unrouted)
	}
	// Rendered artifact equality too — what the golden harness and
	// vfleet print must not depend on the pool size either.
	if seq.Render() != par.Render() {
		t.Fatal("rendered artifacts differ between worker counts")
	}
}

// TestFleetAbrDeterministicAcrossWorkers is the adaptive twin of the
// worker-count determinism guarantee, at the acceptance scale (1,000
// clients outside -race): an ABR fleet under the PR 2 rate-drop
// timeline — controllers reacting to mid-run congestion at the
// aggregation tier — produces a bit-identical FleetResult (QoE
// sketches, rung occupancy and all) for one worker and one worker per
// CPU.
func TestFleetAbrDeterministicAcrossWorkers(t *testing.T) {
	f := Fleet{
		Mix:      []MixEntry{{Player: AbrBuffer, Weight: 2}, {Player: AbrRate, Weight: 1}, {Player: AbrFixed, Weight: 1}},
		Clients:  fleetDetClients,
		Duration: 30 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 8 * time.Second},
		Down:     netem.Dynamics{}.Then(netem.RateStep(10*time.Second, 20*netem.Mbps)),
		Seed:     17,
	}
	seq := RunFleet(runner.Options{Workers: 1}, f)
	par := RunFleet(runner.Options{Workers: runtime.NumCPU() + 3}, f)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("ABR fleet result differs between worker counts:\nseq: %s\npar: %s",
			seq.Render(), par.Render())
	}
	if seq.Render() != par.Render() {
		t.Fatal("rendered artifacts differ between worker counts")
	}
	if seq.RungShare() == nil {
		t.Fatal("adaptive fleet reported no rung occupancy")
	}
	if seq.FetchedMbps.Quantile(0.5) <= 0 {
		t.Fatalf("adaptive fleet fetched nothing: %s", seq.Render())
	}
}

// TestFleetGOMAXPROCSInvariant tightens the worker-count invariance
// to the OS-thread level: two same-seed fleets serialize to
// byte-identical FleetResult artifacts between GOMAXPROCS=1 (forced
// single-threaded execution, whatever the pool size) and an
// oversubscribed parallel pool. Together with the globalrand vlint
// rule — no draw outside a seeded *rand.Rand, so the per-cell
// sim.Scheduler rng is the only randomness source reachable from a
// cell — this pins that thread scheduling cannot reach result bytes.
func TestFleetGOMAXPROCSInvariant(t *testing.T) {
	f := detFleet()
	f.Clients = 100
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	seq := RunFleet(runner.Options{Workers: runtime.NumCPU() + 3}, f)
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)
	par := RunFleet(runner.Options{Workers: runtime.NumCPU() + 3}, f)
	a, err := seq.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("serialized FleetResult differs between GOMAXPROCS=1 and %d:\nseq: %s\npar: %s",
			runtime.NumCPU()+2, seq.Render(), par.Render())
	}
}

// TestFleetRerunIdentical: the same spec twice yields the same result
// (no hidden global state).
func TestFleetRerunIdentical(t *testing.T) {
	f := detFleet()
	f.Clients = 64
	a := RunFleet(runner.Options{Workers: 1}, f)
	b := RunFleet(runner.Options{Workers: 2}, f)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs produced different results")
	}
}

// exactQuantile mirrors the sketch's rank convention on a buffered
// sample vector.
func exactQuantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// coreRecorder buffers the raw core-link capture — the exact,
// buffered computation the streaming accumulators are pinned against.
type coreRecorder struct {
	at   []time.Duration
	size []int
}

func (r *coreRecorder) Capture(at time.Duration, seg *packet.Segment) {
	r.at = append(r.at, at)
	r.size = append(r.size, seg.WireLen())
}

// TestFleetSketchMatchesExact runs one fleet with both pipelines
// attached: the streaming quantile sketches must sit within their
// pinned relative-error bound of the exact buffered quantiles, and
// the streaming binned utilization must equal the offline binning of
// the buffered capture bit-for-bit (same values, same addition
// order). This mirrors the streaming/buffered analyzer equivalence
// suite one level up.
func TestFleetSketchMatchesExact(t *testing.T) {
	rec := &coreRecorder{}
	f := Fleet{
		Mix:          []MixEntry{{Player: Flash, Weight: 1}, {Player: ChromeHtml5, Weight: 2}},
		Clients:      48,
		Duration:     40 * time.Second,
		Arrival:      Arrival{Kind: Poisson, Window: 10 * time.Second},
		Seed:         5,
		UtilBin:      500 * time.Millisecond,
		Exact:        true,
		ExtraCoreTap: rec,
	}
	res := RunFleet(runner.Options{}, f)

	if res.Exact == nil || len(res.Exact.RateMbps) != 48 {
		t.Fatalf("exact vectors missing: %+v", res.Exact)
	}
	if int64(len(res.Exact.RateMbps)) != res.RateMbps.N() {
		t.Fatalf("sketch saw %d rate samples, exact has %d", res.RateMbps.N(), len(res.Exact.RateMbps))
	}
	checkSketch := func(name string, sk *stats.Sketch, samples []float64) {
		t.Helper()
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			got := sk.Quantile(q)
			want := exactQuantile(samples, q)
			if want == 0 {
				if got != 0 {
					t.Fatalf("%s q=%v: exact 0, sketch %v", name, q, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > sk.RelErr+1e-12 {
				t.Fatalf("%s q=%v: exact %v, sketch %v, rel err %.5f > %.5f",
					name, q, want, got, rel, sk.RelErr)
			}
		}
		if got, want := sk.Mean(), stats.Mean(samples); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s mean: sketch %v, exact %v", name, got, want)
		}
	}
	checkSketch("rate", res.RateMbps, res.Exact.RateMbps)
	checkSketch("startup", res.StartupSec, res.Exact.StartupSec)

	// Streaming binned utilization vs offline binning of the buffered
	// capture: identical capture order means identical float sums.
	exact := stats.NewBinned(f.UtilBin, f.Duration)
	var total float64
	for i, at := range rec.at {
		exact.Add(at, float64(rec.size[i]))
		total += float64(rec.size[i])
	}
	if !reflect.DeepEqual(exact.Bins, res.CoreUtil.Bins) {
		t.Fatal("streaming core utilization series differs from exact offline binning")
	}
	if res.CoreUtil.Sum() != total {
		t.Fatalf("core bytes: streaming %v, exact %v", res.CoreUtil.Sum(), total)
	}

	// Concurrency integrates to a sane series: never negative, peaks
	// at no more than the client count.
	for i, c := range res.Concurrency() {
		if c < 0 || c > float64(f.Clients) {
			t.Fatalf("concurrency bin %d = %v out of [0,%d]", i, c, f.Clients)
		}
	}
}

// TestFleetMixPattern: the weighted round-robin assignment is exact
// and shard-invariant.
func TestFleetMixPattern(t *testing.T) {
	f := Fleet{Mix: []MixEntry{{Player: Flash, Weight: 2}, {Player: FirefoxHtml5, Weight: 1}}}.withDefaults()
	p := f.pattern()
	if len(p) != 3 || p[0] != Flash || p[1] != Flash || p[2] != FirefoxHtml5 {
		t.Fatalf("pattern = %v", p)
	}
	counts := map[PlayerKind]int{}
	for i := 0; i < 300; i++ {
		counts[p[i%len(p)]]++
	}
	if counts[Flash] != 200 || counts[FirefoxHtml5] != 100 {
		t.Fatalf("mix proportions off: %v", counts)
	}
	// Per-client videos carry the kind's native container and
	// consecutive IDs regardless of which shard runs them.
	v := f.fleetVideo(7, Flash)
	if v.Container != Flash.NativeContainer() || v.ID != f.Video.ID+7 {
		t.Fatalf("fleetVideo = %+v", v)
	}
}

// TestFleetValidate rejects the specs that cannot run.
func TestFleetValidate(t *testing.T) {
	bad := []Fleet{
		{Mix: []MixEntry{{Player: Flash, Weight: 0}}},
		{Mix: []MixEntry{{Player: Flash, Weight: 1}, {Player: NetflixIPad, Weight: 1}}},
		{Clients: 17_000_000},
		{Duration: 10 * time.Second, Warmup: 10 * time.Second},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, f)
		}
	}
	// The mixed-service rejection must fire for the service reason
	// specifically: a YouTube player and a Netflix player cannot share
	// one server port, and the cell world builds exactly one service.
	if err := bad[1].Validate(); err == nil || !strings.Contains(err.Error(), "spans services") {
		t.Fatalf("mixed-service mix rejected for the wrong reason: %v", err)
	}
	ok := Fleet{Mix: []MixEntry{{Player: Flash, Weight: 1}}, Clients: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fleet rejected: %v", err)
	}
}

// TestMixWeightCap: a mix expands into one cycle slot per unit of
// weight, so ParseMix and Fleet.Validate bound a weight by
// maxMixWeight instead of allocating whatever a spec asks for.
func TestMixWeightCap(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"flash:1024", true},
		{"flash:1024+firefox:1", true},
		{"flash:1025", false},
		{"flash:2000000000", false},
		{"flash:1+firefox:1025", false},
	}
	for _, c := range cases {
		mix, err := ParseMix(c.spec)
		if (err == nil) != c.ok {
			t.Fatalf("ParseMix(%q) = %v, %v; want ok=%v", c.spec, mix, err, c.ok)
		}
	}
	for _, w := range []int{1025, 2_000_000_000} {
		if err := (Fleet{Mix: []MixEntry{{Player: Flash, Weight: w}}}).Validate(); err == nil {
			t.Fatalf("Validate accepted weight %d", w)
		}
	}
	if err := (Fleet{Mix: []MixEntry{{Player: Flash, Weight: maxMixWeight}}}).Validate(); err != nil {
		t.Fatalf("Validate rejected weight %d: %v", maxMixWeight, err)
	}
}

// TestMixedFleetKeepsLegacyBitrate: adding an adaptive kind to a mix
// must not re-pin the shared video template — only the adaptive
// clients get the default ladder, applied per client.
func TestMixedFleetKeepsLegacyBitrate(t *testing.T) {
	f := Fleet{Mix: []MixEntry{
		{Player: SilverlightPC, Weight: 1},
		{Player: AbrBuffer, Weight: 1},
	}}.withDefaults()
	if len(f.Video.Renditions) != 0 || f.Video.EncodingRate != 1.75e6 {
		t.Fatalf("shared template mutated by the adaptive mix entry: %+v", f.Video)
	}
	legacy := f.fleetVideo(0, SilverlightPC)
	if len(legacy.Renditions) != 0 || legacy.EncodingRate != 1.75e6 {
		t.Fatalf("legacy client video mutated: %+v", legacy)
	}
	adaptive := f.fleetVideo(1, AbrBuffer)
	if len(adaptive.Renditions) == 0 {
		t.Fatalf("adaptive client got no ladder: %+v", adaptive)
	}
}
