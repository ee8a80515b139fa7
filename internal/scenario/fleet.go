package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// MixEntry weights one player kind inside a fleet's strategy mix.
type MixEntry struct {
	Player PlayerKind
	Weight int
}

// Fleet declares a fleet-scale run: hundreds to thousands of
// concurrent sessions of a strategy mix, each behind its own access
// link. Every Tree.ClientsPerAgg clients form one cell: a netem.Tree
// whose clients compete at one aggregation link behind one core
// uplink, simulated on its own. This is the aggregate vantage the paper
// closes on — what an ISP sees when thousands of ON-OFF sources
// synchronize — so results are streaming aggregate statistics
// (mergeable quantile sketches, fixed-width utilization series), not
// per-session captures: per-client state is O(1) and no analyzer or
// trace is attached anywhere.
type Fleet struct {
	Name string
	// Mix is the strategy mix. Clients take kinds from a deterministic
	// weighted round-robin pattern, so proportions are exact for any
	// client count. Empty means 100% Flash. All entries must talk to
	// one service (YouTube and Netflix players cannot share a server
	// port).
	Mix []MixEntry
	// CCMix assigns server-side congestion controllers per client:
	// global client i is served with CCMix[i % len(CCMix)] (tcp.CCReno
	// etc.; parse textual specs with ParseCCMix). Like Mix, the
	// assignment depends only on the global client index, never on
	// sharding, so mixed-CC results stay bit-identical across any
	// worker/shard/process split. Empty serves everyone with Reno.
	CCMix   []string
	Clients int // total sessions; default 64
	// Tree shapes the topology; zero fields take netem defaults
	// (6/1 Mbps access, 32 clients per 200 Mbps aggregation link,
	// 2 Gbps core).
	Tree netem.TreeConfig
	// Video is the content template; per-client copies get consecutive
	// IDs and the client's native container. Zero EncodingRate selects
	// the 1.75 Mbps 360p default.
	Video   media.Video
	Arrival Arrival
	// Duration is the absolute horizon; 0 → 180 s.
	Duration time.Duration
	// Warmup is where aggregate statistics (utilization means,
	// burstiness) start, so arrival ramps don't masquerade as
	// burstiness; 0 → Duration/4.
	Warmup time.Duration
	Seed   int64
	// Down is a dynamics timeline applied to every aggregation
	// downstream link of every cell — the fleet-scale form of the
	// rate-drop scenarios (mid-run congestion at the contended tier),
	// and the way to give a whole fleet random loss or extra delay
	// (a loss or delay step at 0 s). Empty leaves the links frozen.
	Down netem.Dynamics
	// UtilBin is the width of the fixed-width utilization/concurrency
	// bins; 0 → 1 s. The quantile sketches always use
	// stats.DefaultSketchErr (1%).
	UtilBin time.Duration
	// FreshWorlds is a diagnostic knob: build a fresh cell world for
	// every cell instead of recycling one per worker. Results must be
	// byte-identical either way — this is the baseline the
	// fresh-vs-recycled equivalence suite (and `vfleet -fresh-worlds`)
	// compares against. Slower and allocation-heavy; leave false.
	FreshWorlds bool
}

// ParseMix parses a command-line strategy mix: entries of the form
// "player:weight" (weight optional, default 1, at most maxMixWeight)
// joined by '+' or ',', e.g. "flash:2+firefox:1" or "flash,chrome". It
// is the textual twin of Fleet.MixString.
func ParseMix(s string) ([]MixEntry, error) {
	terms, err := parseMixTerms("mix", s)
	if err != nil {
		return nil, err
	}
	out := make([]MixEntry, len(terms))
	for i, t := range terms {
		kind, ok := PlayerKindByName(t.name)
		if !ok {
			return nil, fmt.Errorf("mix %q: unknown player %q", s, t.name)
		}
		out[i] = MixEntry{Player: kind, Weight: t.weight}
	}
	return out, nil
}

// maxMixWeight caps one entry's weight in a strategy or
// congestion-control mix. Both mixes expand into a per-client cycle
// with one slot per unit of weight, so an unbounded weight would be an
// unbounded allocation.
const maxMixWeight = 1024

// mixTerm is one "name[:weight]" entry of a mix.
type mixTerm struct {
	name   string
	weight int
}

// parseMixTerms splits a mix into its entries, joined by '+' or ',':
// each a name with an optional ":weight" in [1, maxMixWeight]
// (default 1). what names the mix in errors.
func parseMixTerms(what, s string) ([]mixTerm, error) {
	var out []mixTerm
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == '+' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t := mixTerm{name: part, weight: 1}
		if i := strings.IndexByte(part, ':'); i >= 0 {
			t.name = strings.TrimSpace(part[:i])
			w, err := strconv.Atoi(strings.TrimSpace(part[i+1:]))
			if err != nil || w <= 0 || w > maxMixWeight {
				return nil, fmt.Errorf("%s %q: bad weight in %q (want 1..%d)", what, s, part, maxMixWeight)
			}
			t.weight = w
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s %q: no entries", what, s)
	}
	return out, nil
}

// MixString renders the resolved mix ("flash:1+firefox:1").
func (f Fleet) MixString() string {
	parts := make([]string, len(f.Mix))
	for i, e := range f.Mix {
		parts[i] = fmt.Sprintf("%s:%d", e.Player, e.Weight)
	}
	return strings.Join(parts, "+")
}

func (f Fleet) withDefaults() Fleet {
	if len(f.Mix) == 0 {
		f.Mix = []MixEntry{{Player: Flash, Weight: 1}}
	}
	if f.Clients <= 0 {
		f.Clients = 64
	}
	if f.Duration <= 0 {
		f.Duration = session.DefaultDuration
	}
	if f.Warmup <= 0 {
		f.Warmup = f.Duration / 4
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	if f.UtilBin <= 0 {
		f.UtilBin = time.Second
	}
	f.Tree = f.Tree.WithDefaults()
	if f.Video.EncodingRate == 0 {
		f.Video = media.Video{
			EncodingRate: 1.75e6,
			Duration:     420 * time.Second,
			Resolution:   "360p",
		}
	}
	if f.Video.ID == 0 {
		f.Video.ID = 9000
	}
	if f.Video.Duration <= 0 {
		f.Video.Duration = 420 * time.Second
	}
	if f.Name == "" {
		f.Name = fmt.Sprintf("fleet x%d %s", f.Clients, f.MixString())
	}
	return f
}

// Validate rejects fleets that cannot run.
func (f Fleet) Validate() error {
	f = f.withDefaults()
	svc := f.Mix[0].Player.Service()
	for _, e := range f.Mix {
		if e.Weight <= 0 || e.Weight > maxMixWeight {
			return fmt.Errorf("fleet %q: weight %d for %s outside 1..%d", f.Name, e.Weight, e.Player, maxMixWeight)
		}
		if e.Player.Service() != svc {
			return fmt.Errorf("fleet %q: mix spans services (%s is %s, %s is %s)",
				f.Name, f.Mix[0].Player, svc, e.Player, e.Player.Service())
		}
	}
	if f.Clients > maxFleetClients {
		return fmt.Errorf("fleet %q: %d clients exceeds the 10.0.0.0/8 address plan", f.Name, f.Clients)
	}
	if f.Warmup >= f.Duration {
		return fmt.Errorf("fleet %q: warmup %v >= duration %v", f.Name, f.Warmup, f.Duration)
	}
	if err := f.Down.Validate(); err != nil {
		return fmt.Errorf("fleet %q down: %w", f.Name, err)
	}
	for _, cc := range f.CCMix {
		if !tcp.ValidCC(cc) {
			return fmt.Errorf("fleet %q: unknown congestion control %q", f.Name, cc)
		}
	}
	return nil
}

// ParseCCMix parses a congestion-controller mix: names joined by '+'
// or ',', each with an optional ":weight" of at most maxMixWeight
// ("cubic", "reno:2+cubic:1").
// The result is the expanded per-client cycle for Fleet.CCMix.
func ParseCCMix(s string) ([]string, error) {
	terms, err := parseMixTerms("cc mix", s)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, t := range terms {
		name := strings.ToLower(t.name)
		if name == "" || !tcp.ValidCC(name) {
			return nil, fmt.Errorf("cc mix %q: unknown congestion control %q (%s)",
				s, name, strings.Join(tcp.CCKinds(), "|"))
		}
		for k := 0; k < t.weight; k++ {
			out = append(out, name)
		}
	}
	return out, nil
}

// maxFleetClients is the capacity of the 10.0.0.0/8 client address
// plan: session.ClientAddrOf maps indices injectively into three octets.
const maxFleetClients = 1<<24 - 2

// cells returns the number of simulation cells the fleet splits into:
// one per aggregation group. The cell is the fixed physical unit — its
// own scheduler, tree, server, and core uplink — which is what makes
// results independent of how cells are batched across workers or
// processes.
func (f Fleet) cells() int {
	per := f.Tree.ClientsPerAgg
	return (f.Clients + per - 1) / per
}

// Cells reports how many cells the resolved fleet runs — the unit
// distributed drivers partition across processes.
func (f Fleet) Cells() int {
	return f.withDefaults().cells()
}

// pattern expands the mix into its weighted round-robin sequence:
// entry order, each kind Weight times. Client i plays
// pattern[i%len(pattern)], which keeps proportions exact and the
// assignment independent of sharding.
func (f Fleet) pattern() []PlayerKind {
	var p []PlayerKind
	for _, e := range f.Mix {
		for k := 0; k < e.Weight; k++ {
			p = append(p, e.Player)
		}
	}
	return p
}

// fleetVideo is client i's content: the template with a consecutive ID
// and the client's native container, so a mixed fleet streams each
// kind its own format. An adaptive client with no explicit ladder gets
// the default one — applied per client, never to the shared template,
// so legacy kinds in a mixed fleet keep the template's bitrate instead
// of being silently re-pinned to the ladder's top rung.
func (f Fleet) fleetVideo(i int, kind PlayerKind) media.Video {
	v := f.Video
	v.ID += i
	v.Container = kind.NativeContainer()
	if kind.Adaptive() && len(v.Renditions) == 0 {
		v = v.WithLadder(media.DefaultLadder()...)
	}
	return v
}

// FleetResult is the merged outcome of a fleet run: streaming
// aggregate statistics only, O(clients + bins) memory regardless of
// how many packets flowed.
type FleetResult struct {
	Fleet   Fleet // resolved spec
	Clients int
	Groups  int // aggregation links == cells across the whole fleet

	// Per-client QoE sketches (merged across cells, exact merge).
	RateMbps   *stats.Sketch // mean goodput over each client's active period
	StartupSec *stats.Sketch // arrival → first payload byte

	// Playback QoE sketches (merged across cells): the buffer-model
	// outcomes of every client.
	RebufCount  *stats.Sketch // rebuffer events per client
	RebufSec    *stats.Sketch // total rebuffer seconds per client
	SwitchCount *stats.Sketch // rendition switches per client
	FetchedMbps *stats.Sketch // duration-weighted mean fetched bitrate
	// RungSec is fetched media seconds per ladder rung, summed
	// fleet-wide (nil when no client streamed a ladder).
	RungSec []float64

	// Per-tier downstream utilization: wire bytes per UtilBin bin,
	// summed over every link of the tier (and every cell).
	CoreUtil   *stats.Binned
	AggUtil    *stats.Binned
	AccessUtil *stats.Binned
	// ConcurrencyDeltas holds +1/-1 at each client's active-period
	// boundaries; Concurrency() integrates it.
	ConcurrencyDeltas *stats.Binned

	// Burstiness sketches over post-warmup per-bin rates: one CV
	// sample per aggregation link and one per cell core link.
	AggBurst  *stats.Sketch
	CoreBurst *stats.Sketch

	// Loss accounting (downstream), per tier.
	CoreOffered, CoreDropped      int
	AggDropped, AccessDropped     int
	Unrouted                      int
	InducedCoreLoss               float64
	Downloaded                    int64 // player-consumed bytes, fleet-wide
	ActiveClients, StarvedClients int   // got ≥1 payload byte / got none
}

// Concurrency returns the per-bin count of clients with an active
// download (first payload seen, last payload not yet).
func (r *FleetResult) Concurrency() []float64 { return r.ConcurrencyDeltas.Cum() }

// meanMbps converts a tier's merged byte series into the mean
// per-link Mbps over the post-warmup window.
func (r *FleetResult) meanMbps(b *stats.Binned, links int) float64 {
	w := b.From(r.Fleet.Warmup)
	if len(w) == 0 || links == 0 {
		return 0
	}
	return stats.Mean(w) * 8 / b.Width.Seconds() / 1e6 / float64(links)
}

// CoreMbps, AggMbps and AccessMbps return mean per-link downstream
// rates over the post-warmup window.
func (r *FleetResult) CoreMbps() float64 { return r.meanMbps(r.CoreUtil, r.Groups) }

// AggMbps returns the mean per-aggregation-link downstream rate.
func (r *FleetResult) AggMbps() float64 { return r.meanMbps(r.AggUtil, r.Groups) }

// AccessMbps returns the mean per-access-link downstream rate.
func (r *FleetResult) AccessMbps() float64 { return r.meanMbps(r.AccessUtil, r.Clients) }

// Render prints the fleet summary table shared by vfleet, the fleet
// example and the experiment artifacts.
func (r *FleetResult) Render() string {
	var b strings.Builder
	f := r.Fleet
	fmt.Fprintf(&b, "fleet %q: %d clients, %d cells (%d/agg), %v horizon (%v warmup)\n",
		f.Name, r.Clients, r.Groups, f.Tree.ClientsPerAgg, f.Duration, f.Warmup)
	fmt.Fprintf(&b, "  mix            : %s, arrivals %s\n", f.MixString(), f.Arrival.Kind)
	fmt.Fprintf(&b, "  tier util Mbps : core %.1f  agg %.1f  access %.2f (per link, post-warmup)\n",
		r.CoreMbps(), r.AggMbps(), r.AccessMbps())
	fmt.Fprintf(&b, "  agg burstiness : CV p50 %.3f (p90 %.3f)   core CV %.3f\n",
		r.AggBurst.Quantile(0.5), r.AggBurst.Quantile(0.9), r.CoreBurst.Quantile(0.5))
	fmt.Fprintf(&b, "  client rate    : p10 %.2f  p50 %.2f  p90 %.2f Mbps (%d active, %d starved)\n",
		r.RateMbps.Quantile(0.1), r.RateMbps.Quantile(0.5), r.RateMbps.Quantile(0.9),
		r.ActiveClients, r.StarvedClients)
	fmt.Fprintf(&b, "  startup        : p50 %.2f s  p90 %.2f s\n",
		r.StartupSec.Quantile(0.5), r.StartupSec.Quantile(0.9))
	fmt.Fprintf(&b, "  playback       : rebuffers p50 %.0f (p90 %.0f), %.1f s stalled p90, switches p50 %.0f\n",
		r.RebufCount.Quantile(0.5), r.RebufCount.Quantile(0.9),
		r.RebufSec.Quantile(0.9), r.SwitchCount.Quantile(0.5))
	if shares := r.RungShare(); shares != nil {
		fmt.Fprintf(&b, "  rung occupancy :")
		for i, s := range shares {
			fmt.Fprintf(&b, " r%d %.0f%%", i, s*100)
		}
		fmt.Fprintf(&b, "  (mean fetched %.2f Mbps p50)\n", r.FetchedMbps.Quantile(0.5))
	}
	fmt.Fprintf(&b, "  core loss      : %.3f%% (%d/%d)  agg drops %d  access drops %d\n",
		r.InducedCoreLoss*100, r.CoreDropped, r.CoreOffered, r.AggDropped, r.AccessDropped)
	return b.String()
}

// RungShare returns each ladder rung's share of the fetched media
// time, nil when no client streamed a ladder.
func (r *FleetResult) RungShare() []float64 {
	var total float64
	for _, s := range r.RungSec {
		total += s
	}
	if total <= 0 {
		return nil
	}
	out := make([]float64, len(r.RungSec))
	for i, s := range r.RungSec {
		out[i] = s / total
	}
	return out
}

// clientState is the whole per-client state a fleet run keeps — six
// words in a struct-of-arrays slice, so every client's counters live
// in one cache line and the tap update is O(1) per downstream packet.
// The struct is its own netem.Tap: attaching &states[j] boxes a plain
// pointer into the interface, so flattening also removes the per-client
// tap allocation the old two-level clientTap paid.
type clientState struct {
	bytes   int64
	packets int64
	start   time.Duration
	first   time.Duration // -1 until the first payload byte
	last    time.Duration
	util    *stats.Binned // shared access-tier utilization series
}

// Capture implements netem.Tap.
func (c *clientState) Capture(at time.Duration, seg *packet.Segment) {
	c.util.Add(at, float64(seg.WireLen()))
	n := seg.Len()
	if n == 0 {
		return
	}
	c.packets++
	c.bytes += int64(n)
	if c.first < 0 {
		c.first = at
	}
	c.last = at
}

// utilTap accumulates wire bytes of a shared link into binned series.
type utilTap struct {
	bins []*stats.Binned
}

// Capture implements netem.Tap.
func (t utilTap) Capture(at time.Duration, seg *packet.Segment) {
	v := float64(seg.WireLen())
	for _, b := range t.bins {
		b.Add(at, v)
	}
}

// fleetCellSeed derives the deterministic seed of one cell from the
// global index of its first client; a fixed formula (not an rng
// stream) keeps it independent of evaluation order. The formula is the
// one the sharded scheme used, so group-aligned runs reproduce their
// historical traces exactly.
func fleetCellSeed(seed int64, firstClient int) int64 {
	return seed + 1000003*int64(firstClient)
}

// merge folds sh — the next cell in global cell order — into r. Every
// operation is either exact (sketch bin addition, integer sums) or a
// float left-fold in a fixed order, so any execution that folds cells
// 0..n-1 left to right produces bit-identical bytes, whether the cells
// ran on one worker, a pool, or another process.
func (r *FleetResult) merge(sh *FleetResult) {
	r.Clients += sh.Clients
	r.Groups += sh.Groups
	r.RateMbps.Merge(sh.RateMbps)
	r.StartupSec.Merge(sh.StartupSec)
	r.RebufCount.Merge(sh.RebufCount)
	r.RebufSec.Merge(sh.RebufSec)
	r.SwitchCount.Merge(sh.SwitchCount)
	r.FetchedMbps.Merge(sh.FetchedMbps)
	for len(r.RungSec) < len(sh.RungSec) {
		r.RungSec = append(r.RungSec, 0)
	}
	for i, sec := range sh.RungSec {
		r.RungSec[i] += sec
	}
	r.CoreUtil.Merge(sh.CoreUtil)
	r.AggUtil.Merge(sh.AggUtil)
	r.AccessUtil.Merge(sh.AccessUtil)
	r.ConcurrencyDeltas.Merge(sh.ConcurrencyDeltas)
	r.AggBurst.Merge(sh.AggBurst)
	r.CoreBurst.Merge(sh.CoreBurst)
	r.CoreOffered += sh.CoreOffered
	r.CoreDropped += sh.CoreDropped
	r.AggDropped += sh.AggDropped
	r.AccessDropped += sh.AccessDropped
	r.Unrouted += sh.Unrouted
	r.Downloaded += sh.Downloaded
	r.ActiveClients += sh.ActiveClients
	r.StarvedClients += sh.StarvedClients
}

// finalize derives the quotient fields once every cell has been folded
// in. It is idempotent, so re-finalizing a merged-of-merged result
// (the distributed parent) is safe.
func (r *FleetResult) finalize() {
	if r.CoreOffered > 0 {
		r.InducedCoreLoss = float64(r.CoreDropped) / float64(r.CoreOffered)
	}
}

// newFleetResult builds an empty result shell for f: the sketches and
// binned series a cell (or the fleet accumulator) folds into. Each
// cell fills a fresh shell and hands it to its consumer; an empty
// sketch holds no bins, so a shell costs little more than its four
// series. Merging a cell into a fresh shell is
// exact, so the accumulator path produces the same bytes the old
// adopt-first-cell fold did.
func newFleetResult(f Fleet) *FleetResult {
	return &FleetResult{
		Fleet:             f,
		RateMbps:          stats.NewSketch(stats.DefaultSketchErr),
		StartupSec:        stats.NewSketch(stats.DefaultSketchErr),
		RebufCount:        stats.NewSketch(stats.DefaultSketchErr),
		RebufSec:          stats.NewSketch(stats.DefaultSketchErr),
		SwitchCount:       stats.NewSketch(stats.DefaultSketchErr),
		FetchedMbps:       stats.NewSketch(stats.DefaultSketchErr),
		CoreUtil:          stats.NewBinned(f.UtilBin, f.Duration),
		AggUtil:           stats.NewBinned(f.UtilBin, f.Duration),
		AccessUtil:        stats.NewBinned(f.UtilBin, f.Duration),
		ConcurrencyDeltas: stats.NewBinned(f.UtilBin, f.Duration),
		AggBurst:          stats.NewSketch(stats.DefaultSketchErr),
		CoreBurst:         stats.NewSketch(stats.DefaultSketchErr),
	}
}

// fleetWave bounds how many per-cell results exist at once: cells run
// in waves on the runner pool and each wave is folded into the
// accumulator before the next starts. A million-client fleet is ~31k
// cells; waves keep the in-flight results O(fleetWave) while the fold
// order stays the global cell order, so the batching is invisible in
// the bytes.
const fleetWave = 1024

// runFleetCellRange runs cells [lo, hi) in waves, passes each cell's
// result to emit in cell order and returns the scheduler work of every
// cell summed. It is the shared engine of RunFleet and the distributed
// child mode (which serializes each result instead of folding it).
//
// Each pool worker keeps one cellWorld for the whole range, so a wave
// reuses Workers worlds instead of constructing fleetWave of them; the
// wave-sized result array is allocated once. A cell's result belongs
// to emit, which may keep it: the engine drops its own reference once
// emit returns. Workers own disjoint wave indexes (runner.MapN), so
// the per-index writes need no locks and the emit order — global cell
// order — is untouched.
func runFleetCellRange(o runner.Options, f Fleet, lo, hi int, emit func(cell int, r *FleetResult)) SimWork {
	if hi <= lo {
		return SimWork{}
	}
	per := f.Tree.ClientsPerAgg
	waveCap := hi - lo
	if waveCap > fleetWave {
		waveCap = fleetWave
	}
	worlds := make([]*cellWorld, o.NumWorkers())
	work := make([]SimWork, len(worlds))
	results := make([]*FleetResult, waveCap)
	for base := lo; base < hi; base += fleetWave {
		n := hi - base
		if n > fleetWave {
			n = fleetWave
		}
		runner.MapN(o, n, func(worker, i int) {
			var w *cellWorld
			if f.FreshWorlds {
				w = newCellWorld(f)
			} else {
				w = worlds[worker]
				if w == nil {
					w = newCellWorld(f)
					worlds[worker] = w
				}
			}
			from := (base + i) * per
			to := from + per
			if to > f.Clients {
				to = f.Clients
			}
			results[i] = w.run(from, to)
			work[worker].Events += w.world.Sch.Events
			work[worker].Retires += w.world.Sch.Retires
		})
		for i := 0; i < n; i++ {
			emit(base+i, results[i])
			results[i] = nil
		}
	}
	var total SimWork
	for _, wk := range work {
		total.Events += wk.Events
		total.Retires += wk.Retires
	}
	return total
}

// SimWork is the scheduler work of a fleet run, summed over its cells:
// queue events run and lane records retired (sim.Scheduler's Events
// and Retires; each link hop is one retire). Like the result, it is
// deterministic.
type SimWork struct{ Events, Retires int64 }

// RunFleet executes the fleet: cells fan out on the runner pool (each
// cell one single-threaded simulation of one aggregation group on a
// per-worker recycled cell world) and their streaming statistics fold
// in cell order into a fresh accumulator, so the result is
// bit-identical for any worker count — and, because the cell is the
// physical unit, for any shard or process count too.
func RunFleet(o runner.Options, f Fleet) *FleetResult {
	res, _ := RunFleetWork(o, f)
	return res
}

// RunFleetWork is RunFleet that also returns the scheduler work the
// run did.
func RunFleetWork(o runner.Options, f Fleet) (*FleetResult, SimWork) {
	f = f.withDefaults()
	if err := f.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	res := newFleetResult(f)
	work := runFleetCellRange(o, f, 0, f.cells(), func(_ int, sh *FleetResult) {
		res.merge(sh)
	})
	res.finalize()
	return res, work
}
