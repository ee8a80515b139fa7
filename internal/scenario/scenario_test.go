package scenario

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/trace"
)

func TestPlayerKindRegistry(t *testing.T) {
	kinds := PlayerKinds()
	if len(kinds) != 13 {
		t.Fatalf("want 13 player kinds (9 legacy + 4 ABR), got %d", len(kinds))
	}
	legacy := 0
	for _, k := range kinds {
		if !k.Adaptive() {
			legacy++
		}
	}
	if legacy != 9 {
		t.Fatalf("want the paper's 9 legacy kinds, got %d", legacy)
	}
	if !AbrBuffer.Adaptive() || Flash.Adaptive() {
		t.Fatal("Adaptive() misclassifies kinds")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k.String()] {
			t.Fatalf("duplicate player kind name %q", k)
		}
		seen[k.String()] = true
		if p := k.New(); p == nil || p.Name() == "" {
			t.Fatalf("kind %v: factory returned unusable player", k)
		}
		got, ok := PlayerKindByName(k.String())
		if !ok || got != k {
			t.Fatalf("PlayerKindByName(%q) = %v, %v", k, got, ok)
		}
	}
	if SilverlightPC.Service() != session.Netflix || Flash.Service() != session.YouTube {
		t.Fatal("player->service mapping broken")
	}
	if _, ok := PlayerKindByName("winamp"); ok {
		t.Fatal("unknown player name resolved")
	}
}

// TestNativeContainer pins each kind's container: FLV for the Flash
// plugin, MP4 fragments for the Netflix clients and the
// fragment-fetching ABR kinds, WebM for every other kind.
func TestNativeContainer(t *testing.T) {
	want := []media.Container{
		Flash: media.Flash, IEHtml5: media.HTML5, FirefoxHtml5: media.HTML5,
		ChromeHtml5: media.HTML5, AndroidYouTube: media.HTML5, IPadYouTube: media.HTML5,
		SilverlightPC: media.Silverlight, NetflixIPad: media.Silverlight, NetflixAndroid: media.Silverlight,
		AbrFixed: media.Silverlight, AbrRate: media.Silverlight, AbrBuffer: media.Silverlight,
		AbrRange: media.HTML5,
	}
	if len(want) != len(PlayerKinds()) {
		t.Fatalf("%d kinds, %d expected containers", len(PlayerKinds()), len(want))
	}
	for _, k := range PlayerKinds() {
		if got := k.NativeContainer(); got != want[k] {
			t.Fatalf("%s streams %v, want %v", k, got, want[k])
		}
	}
}

func TestArrivalProcesses(t *testing.T) {
	for _, a := range []Arrival{
		{Kind: AllAtOnce},
		{Kind: Staggered, Window: 30 * time.Second},
		{Kind: Poisson, Window: 30 * time.Second, Rate: 0.5},
		{Kind: FlashCrowd, Window: 60 * time.Second},
	} {
		rng := rand.New(rand.NewSource(5))
		ts := a.Times(16, rng)
		if len(ts) != 16 {
			t.Fatalf("%v: %d times", a.Kind, len(ts))
		}
		window := a.Window
		if window == 0 {
			window = 60 * time.Second
		}
		for i, x := range ts {
			if x < 0 || x > window {
				t.Fatalf("%v: time %v outside [0, %v]", a.Kind, x, window)
			}
			if i > 0 && x < ts[i-1] {
				t.Fatalf("%v: times not sorted", a.Kind)
			}
			if a.Kind == AllAtOnce && x != 0 {
				t.Fatalf("all-at-once produced offset %v", x)
			}
			if a.Kind == FlashCrowd && x > 6*time.Second {
				t.Fatalf("flash crowd arrival %v beyond 10%% of the window", x)
			}
		}
		// Same seed, same schedule.
		again := a.Times(16, rand.New(rand.NewSource(5)))
		for i := range ts {
			if ts[i] != again[i] {
				t.Fatalf("%v: schedule not deterministic", a.Kind)
			}
		}
	}
	if got := (Arrival{}).Times(0, rand.New(rand.NewSource(1))); got != nil {
		t.Fatal("zero sessions must produce no times")
	}
}

func TestSpecConfigsExpansion(t *testing.T) {
	sp := Spec{
		Player:   ChromeHtml5,
		Sessions: 4,
		Arrival:  Arrival{Kind: Staggered, Window: 20 * time.Second},
		Duration: 60 * time.Second,
		Seed:     7,
		Down:     netem.Dynamics{}.Then(netem.RateStep(30*time.Second, 2*netem.Mbps)),
	}
	cfgs := sp.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("expanded %d configs, want 4", len(cfgs))
	}
	seeds := map[int64]bool{}
	ids := map[int]bool{}
	for i, c := range cfgs {
		if c.Service != session.YouTube {
			t.Fatalf("config %d: service %v", i, c.Service)
		}
		if c.Player == nil {
			t.Fatalf("config %d: nil player", i)
		}
		if c.Duration != 60*time.Second {
			t.Fatalf("config %d: duration %v", i, c.Duration)
		}
		if c.StartAt < 0 || c.StartAt > 20*time.Second {
			t.Fatalf("config %d: StartAt %v outside window", i, c.StartAt)
		}
		if seeds[c.Seed] {
			t.Fatalf("config %d: duplicate seed", i)
		}
		seeds[c.Seed] = true
		if ids[c.Video.ID] {
			t.Fatalf("config %d: duplicate video ID %d", i, c.Video.ID)
		}
		ids[c.Video.ID] = true
		if len(c.DownDynamics.Steps) != 1 {
			t.Fatalf("config %d: dynamics not propagated", i)
		}
	}
	// Expansion is deterministic.
	again := sp.Configs()
	for i := range cfgs {
		if cfgs[i].Seed != again[i].Seed || cfgs[i].StartAt != again[i].StartAt {
			t.Fatalf("config %d: expansion not deterministic", i)
		}
	}
}

// TestRunIsolatedStartAt: a delayed arrival must shorten the effective
// stream (capture horizon is absolute) and still produce a capture.
func TestRunIsolatedStartAt(t *testing.T) {
	sp := Spec{
		Player:   Flash,
		Sessions: 2,
		Arrival:  Arrival{Kind: Staggered, Window: 15 * time.Second},
		Duration: 40 * time.Second,
		Seed:     3,
	}
	results := RunIsolated(runner.Options{Workers: 2}, sp)
	for i, r := range results {
		if r.Downloaded == 0 {
			t.Fatalf("session %d downloaded nothing", i)
		}
		if r.Packets == 0 {
			t.Fatalf("session %d captured nothing", i)
		}
	}
}

// TestRunSharedDeterminism: two identical shared runs must agree
// byte-for-byte; a different seed must not (smoke that the seed is
// actually threaded through).
func TestRunSharedDeterminism(t *testing.T) {
	sp := Spec{
		Player:   Flash,
		Sessions: 4,
		Arrival:  Arrival{Kind: FlashCrowd, Window: 20 * time.Second},
		Duration: 45 * time.Second,
		Seed:     11,
		Down:     netem.Dynamics{}.Then(netem.RateStep(25*time.Second, 10*netem.Mbps)),
	}
	a, b := RunShared(sp), RunShared(sp)
	if a.Offered != b.Offered || a.Dropped != b.Dropped || a.Unrouted != b.Unrouted {
		t.Fatalf("shared run not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.Config.StartAt != y.Config.StartAt || x.Downloaded != y.Downloaded || x.Packets != y.Packets {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
		if x.Downloaded == 0 {
			t.Fatalf("outcome %d downloaded nothing", i)
		}
		if x.Packets == 0 {
			t.Fatalf("outcome %d has an empty per-client capture", i)
		}
	}
	if a.Unrouted != 0 {
		t.Fatalf("%d unrouted packets with every client attached", a.Unrouted)
	}
}

// TestRunSharedPerClientCaptures: the address-filtering taps must
// split the shared links into disjoint per-client recordings whose byte
// totals sum to RunShared's aggregate.
func TestRunSharedPerClientCaptures(t *testing.T) {
	sp := Spec{
		Player:   Flash,
		Sessions: 3,
		Duration: 30 * time.Second,
		Seed:     2,
	}
	_, _, recs := recordShared(sp)
	var sum int64
	for i, rec := range recs {
		// Every record in a client's capture must involve its address.
		addr := session.ClientAddrOf(i)
		var down int64
		for _, r := range rec.Records {
			if r.Seg.Src.Addr != addr && r.Seg.Dst.Addr != addr {
				t.Fatalf("client %d capture contains foreign packet", i)
			}
			if r.Dir == trace.Down {
				down += int64(r.Seg.Len())
			}
		}
		if down == 0 {
			t.Fatalf("client %d saw no downstream bytes", i)
		}
		sum += down
	}
	res := RunShared(sp)
	if res.AggregateMbps <= 0 {
		t.Fatal("aggregate rate not computed")
	}
	want := float64(sum) * 8 / sp.Duration.Seconds() / 1e6
	if diff := res.AggregateMbps - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("aggregate %v Mbps, want %v from per-client sum", res.AggregateMbps, want)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := Spec{Player: Flash, Down: netem.Dynamics{Steps: []netem.Step{{At: -time.Second}}}}
	if bad.Validate() == nil {
		t.Fatal("invalid down timeline passed Validate")
	}
}
