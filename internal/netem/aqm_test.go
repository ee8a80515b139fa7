package netem

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// The AQM unit suite checks the two policies against hand-computed
// values — the RED mark-probability curve and EWMA trajectory, the
// CoDel drop schedule under a square-wave sojourn — and pins the drop
// accounting: every policy drop lands in the link's AqmDrops counter
// and rolls up through the tree's per-tier breakdown, exactly like
// OutageDrops does for outages.

// TestRedMarkProbCurve compares the linear drop-probability ramp
// against hand-computed points: 0 below MinTh, MaxP x (avg-MinTh) /
// (MaxTh-MinTh) between the thresholds, 1 at and above MaxTh.
func TestRedMarkProbCurve(t *testing.T) {
	r := &RED{MinTh: 1000, MaxTh: 4000, MaxP: 0.1}
	cases := []struct {
		avg  float64
		want float64
	}{
		{0, 0},
		{999.99, 0},
		{1000, 0},    // ramp starts at zero
		{1600, 0.02}, // 0.1 * 600/3000
		{2500, 0.05}, // midpoint: half of MaxP
		{3400, 0.08}, // 0.1 * 2400/3000
		{3999, 0.1 * 2999.0 / 3000.0},
		{4000, 1}, // hard region
		{9999, 1},
	}
	for _, c := range cases {
		if got := r.MarkProb(c.avg); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("MarkProb(%v) = %v, want %v", c.avg, got, c.want)
		}
	}
}

// TestRedEwmaTrajectory feeds a fixed backlog sequence and checks the
// averaged queue tracks the hand-computed EWMA recurrence
// avg' = avg + w x (q - avg), seeded with the first observation.
func TestRedEwmaTrajectory(t *testing.T) {
	const w = 0.25
	r := &RED{MinTh: 1 << 30, MaxTh: 1 << 31, MaxP: 0.1, Weight: w} // thresholds out of reach
	rng := rand.New(rand.NewSource(1))
	backlogs := []int{4000, 8000, 2000, 0, 6000}
	want := 0.0
	for i, q := range backlogs {
		if !r.Admit(0, q, 1500, 0, rng) {
			t.Fatalf("admit %d: dropped below MinTh", i)
		}
		if i == 0 {
			want = float64(q)
		} else {
			want += w * (float64(q) - want)
		}
		if math.Abs(r.Avg()-want) > 1e-9 {
			t.Fatalf("after backlog %d: avg %v, want %v", q, r.Avg(), want)
		}
	}
}

// TestRedRegions pins the three operating regions: certain admission
// below MinTh, probabilistic drops between the thresholds (the seeded
// rng makes the count exact), certain drops at and above MaxTh.
func TestRedRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Weight 1 makes avg == instantaneous backlog: regions are exact.
	below := &RED{MinTh: 10000, MaxTh: 30000, MaxP: 0.1, Weight: 1}
	for i := 0; i < 1000; i++ {
		if !below.Admit(0, 5000, 1500, 0, rng) {
			t.Fatal("drop below MinTh")
		}
	}
	above := &RED{MinTh: 10000, MaxTh: 30000, MaxP: 0.1, Weight: 1}
	for i := 0; i < 1000; i++ {
		if above.Admit(0, 40000, 1500, 0, rng) {
			t.Fatal("admit at avg >= MaxTh")
		}
	}
	mid := &RED{MinTh: 10000, MaxTh: 30000, MaxP: 0.1, Weight: 1}
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !mid.Admit(0, 20000, 1500, 0, rng) {
			drops++
		}
	}
	// At the midpoint pb = 0.05; the count correction raises the
	// effective rate above pb but it stays well under 3x.
	if drops == 0 || drops < n/40 || drops > n/4 {
		t.Fatalf("midpoint drop count %d of %d implausible for pb=0.05", drops, n)
	}
}

// TestCodelSquareWaveSchedule drives CoDel with a square-wave sojourn
// — 10 ms (above the 5 ms target) during bursts, 1 ms between them —
// at a 10 ms packet clock, and checks the exact drop instants of the
// control law: first drop after one full 100 ms interval above
// target, then dropNext += Interval/sqrt(count), and clean recovery
// when the sojourn falls below target.
func TestCodelSquareWaveSchedule(t *testing.T) {
	c := &CoDel{Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond}
	high := 10 * time.Millisecond
	var drops []time.Duration
	// Phase 1: high sojourn from t=0 to t=400ms, one packet per 10ms.
	for ms := 0; ms <= 400; ms += 10 {
		now := time.Duration(ms) * time.Millisecond
		if !c.Admit(now, 0, 1500, high, nil) {
			drops = append(drops, now)
		}
	}
	// Hand-computed: above since t=0; first drop at the first arrival
	// with now-aboveSince >= 100ms -> t=100ms, count=1, dropNext =
	// 100 + 100/sqrt(1) = 200ms -> drop at 200ms, count=2, dropNext =
	// 200 + 100/sqrt(2) = 270.71ms -> next arrival past it is 280ms,
	// count=3. The schedule then advances from its own previous value
	// (not from the arrival): dropNext = 270.71 + 100/sqrt(3) =
	// 328.45ms -> drop at 330ms, count=4, dropNext = 328.45 + 50 =
	// 378.45ms -> drop at 380ms, count=5, dropNext = 378.45 +
	// 100/sqrt(5) = 423.17ms (past the phase).
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		280 * time.Millisecond,
		330 * time.Millisecond,
		380 * time.Millisecond,
	}
	if len(drops) != len(want) {
		t.Fatalf("drop instants %v, want %v", drops, want)
	}
	for i := range want {
		if drops[i] != want[i] {
			t.Fatalf("drop %d at %v, want %v (all: %v)", i, drops[i], want[i], drops)
		}
	}
	if c.Drops != len(want) {
		t.Fatalf("Drops counter %d, want %d", c.Drops, len(want))
	}

	// Phase 2: the wave goes low — a single under-target sojourn ends
	// the dropping episode immediately.
	if !c.Admit(410*time.Millisecond, 0, 1500, time.Millisecond, nil) {
		t.Fatal("dropped an under-target packet")
	}

	// Phase 3: the wave goes high again right away. Re-entry inside
	// 8 x Interval of the last schedule restarts with count-2 (RFC 8289
	// §5.4), so the second episode's drop clock starts tighter than a
	// fresh episode's would.
	var again []time.Duration
	for ms := 420; ms <= 600; ms += 10 {
		now := time.Duration(ms) * time.Millisecond
		if !c.Admit(now, 0, 1500, high, nil) {
			again = append(again, now)
		}
	}
	// Above since 420ms; first drop at 520ms with count = 5-2 = 3,
	// dropNext = 520 + 100/sqrt(3) = 577.74ms -> drop at 580ms.
	wantAgain := []time.Duration{520 * time.Millisecond, 580 * time.Millisecond}
	if len(again) != len(wantAgain) || again[0] != wantAgain[0] || again[1] != wantAgain[1] {
		t.Fatalf("re-entry drops %v, want %v", again, wantAgain)
	}
}

// TestCodelBelowTargetNeverDrops: a sojourn permanently under target
// never drops, however long it persists.
func TestCodelBelowTargetNeverDrops(t *testing.T) {
	c := &CoDel{Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond}
	for ms := 0; ms < 10000; ms += 10 {
		if !c.Admit(time.Duration(ms)*time.Millisecond, 0, 1500, 4*time.Millisecond, nil) {
			t.Fatalf("dropped at %dms with sojourn under target", ms)
		}
	}
	if c.Drops != 0 {
		t.Fatalf("Drops = %d, want 0", c.Drops)
	}
}

// TestLinkAqmDropAccounting overloads a slow CoDel link and checks the
// policy's drops land in Dropped and AqmDrops — and nowhere else: no
// loss model and no hard cap are configured, so the two counters must
// match exactly, with OutageDrops untouched.
func TestLinkAqmDropAccounting(t *testing.T) {
	sch := sim.NewScheduler(1)
	c := &collector{sch: sch}
	l := NewLink(sch, 1*Mbps, time.Millisecond, 0, nil, c)
	l.SetAQM(AqmConfig{Kind: AqmCoDel}.New(0))
	// 200 packets of 1000 wire bytes = 8 ms serialization each: the
	// standing queue's sojourn blows through 5 ms immediately and stays
	// there, so CoDel must shed.
	for i := 0; i < 200; i++ {
		sch.At(time.Duration(i)*time.Millisecond, func() { l.Send(seg(960)) })
	}
	sch.Run()
	if l.AqmDrops == 0 {
		t.Fatal("overloaded CoDel link dropped nothing")
	}
	if l.AqmDrops != l.Dropped {
		t.Fatalf("AqmDrops %d != Dropped %d on a link whose only drop source is the AQM",
			l.AqmDrops, l.Dropped)
	}
	if l.OutageDrops != 0 {
		t.Fatalf("OutageDrops %d, want 0", l.OutageDrops)
	}
	if l.Sent != 200-l.Dropped {
		t.Fatalf("Sent %d + Dropped %d != 200 offered", l.Sent, l.Dropped)
	}
}

// TestTreeAqmDroppedAtTier attaches a client under a tree whose
// aggregation link runs a tuned RED and checks that policy drops land
// on that tier's link only, and within its total drops.
func TestTreeAqmDroppedAtTier(t *testing.T) {
	sch := sim.NewScheduler(1)
	sink := &collector{sch: sch}
	cfg := TreeConfig{
		Access:        Tier{Down: 100 * Mbps, Up: 100 * Mbps, Delay: time.Millisecond, Queue: 1 << 20},
		Agg:           Tier{Down: 2 * Mbps, Up: 100 * Mbps, Delay: time.Millisecond, Queue: 1 << 20},
		Core:          Tier{Down: 1000 * Mbps, Up: 1000 * Mbps, Delay: time.Millisecond, Queue: 1 << 20},
		ClientsPerAgg: 4,
	}
	tree := NewTree(sch, cfg, sink)
	tree.AggDown.SetAQM(&RED{MinTh: 4 << 10, MaxTh: 16 << 10, MaxP: 0.2, Weight: 0.1})
	addr := [4]byte{10, 0, 0, 1}
	tree.Attach(addr, sink)
	// Hammer the aggregation downstream directly: 2 Mbps drains 250
	// bytes/ms, offering 1000 wire bytes per ms stands a queue fast.
	for i := 0; i < 2000; i++ {
		sch.At(time.Duration(i)*time.Millisecond, func() {
			s := seg(960)
			s.Dst.Addr = addr
			tree.AggDown.Send(s)
		})
	}
	sch.Run()
	if core, access := tree.CoreDown.AqmDrops, tree.AccessDown[0].AqmDrops; core != 0 || access != 0 {
		t.Fatalf("AQM drops on policy-free tiers: core %d access %d", core, access)
	}
	agg := tree.AggDown.AqmDrops
	if agg == 0 {
		t.Fatal("RED aggregation tier never dropped under sustained overload")
	}
	if _, dAgg, _ := tree.DroppedAtTier(); agg > dAgg {
		t.Fatalf("AQM drops %d exceed total drops %d at the aggregation tier", agg, dAgg)
	}
}
