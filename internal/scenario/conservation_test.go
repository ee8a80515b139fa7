package scenario

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/tcp"
)

// TestCellConservation checks packet conservation tier by tier in
// every cell of two small fleets, each run cell after cell on one
// recycled cellWorld: three cells of 32, 32 and a ragged 16 clients. A
// link offers Sent + Dropped packets and has delivered Sent -
// InFlight() of them by the horizon, and each hop's deliveries are the
// next tier's offers, so the tiers must balance exactly. The first
// fleet is the clean ON-OFF mix; the second adds CoDel drops, three
// congestion controllers, ABR and Netflix players and two rate steps.
// On every link of every tier the AQM's drops are a subset of all
// drops, and in the second fleet every cell's CoDel tiers drop, so
// that bound is tested, not vacuous.
func TestCellConservation(t *testing.T) {
	onoff := Fleet{
		Name:     "onoff",
		Mix:      []MixEntry{{Player: Flash, Weight: 1}, {Player: FirefoxHtml5, Weight: 1}},
		Clients:  80,
		Duration: 10 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 3 * time.Second},
		Seed:     1,
	}
	strain := Fleet{
		Name: "strain",
		Mix: []MixEntry{{Player: SilverlightPC, Weight: 1}, {Player: NetflixAndroid, Weight: 1},
			{Player: AbrRate, Weight: 1}, {Player: AbrBuffer, Weight: 1}},
		CCMix:    []string{tcp.CCReno, tcp.CCCubic, tcp.CCBbr},
		Clients:  80,
		Duration: 10 * time.Second,
		Arrival:  Arrival{Kind: Poisson, Window: 3 * time.Second},
		Down:     netem.Dynamics{}.Then(netem.RateStep(3*time.Second, 40*netem.Mbps), netem.RateStep(6*time.Second, 120*netem.Mbps)),
		Seed:     1,
	}
	codel := netem.AqmConfig{Kind: netem.AqmCoDel}
	strain.Tree.Agg.AQM, strain.Tree.Access.AQM = codel, codel

	offered := func(l *netem.Link) int { return l.Sent + l.Dropped }
	delivered := func(l *netem.Link) int { return l.Sent - l.InFlight() }
	sum := func(links []*netem.Link, count func(*netem.Link) int) int {
		n := 0
		for _, l := range links {
			n += count(l)
		}
		return n
	}

	for _, f := range []Fleet{onoff, strain} {
		f = f.withDefaults()
		w := newCellWorld(f)
		if got := f.cells(); got != 3 {
			t.Fatalf("%s: %d cells, want 3", f.Name, got)
		}
		for cell := 0; cell < f.cells(); cell++ {
			from := cell * w.per
			to := min(from+w.per, f.Clients)
			res := w.run(from, to)
			tr := w.tree
			access := tr.Clients()
			check := func(what string, got, want int) {
				t.Helper()
				if got != want {
					t.Errorf("%s cell %d: %s = %d, want %d", f.Name, cell, what, got, want)
				}
			}

			check("core-down delivered", delivered(tr.CoreDown), offered(tr.AggDown))
			check("agg-down delivered", delivered(tr.AggDown), sum(tr.AccessDown[:access], offered)+res.Unrouted)
			check("access-up delivered", sum(tr.AccessUp[:access], delivered), offered(tr.AggUp))
			check("agg-up delivered", delivered(tr.AggUp), offered(tr.CoreUp))
			check("CoreOffered", res.CoreOffered, offered(tr.CoreDown))
			check("active + starved clients", res.ActiveClients+res.StarvedClients, res.Clients)
			check("clients", res.Clients, to-from)

			links := []*netem.Link{tr.CoreDown, tr.CoreUp, tr.AggDown, tr.AggUp}
			for _, tier := range [][]*netem.Link{tr.AccessDown[:access], tr.AccessUp[:access]} {
				links = append(links, tier...)
			}
			aqm := 0
			for i, l := range links {
				if l.AqmDrops > l.Dropped {
					t.Errorf("%s cell %d: link %d has %d AQM drops of %d drops", f.Name, cell, i, l.AqmDrops, l.Dropped)
				}
				aqm += l.AqmDrops
			}
			if f.Tree.Agg.AQM.Enabled() && aqm == 0 {
				t.Errorf("%s cell %d: CoDel tiers dropped nothing, so AqmDrops <= Dropped is vacuous", f.Name, cell)
			}

			var payload int64
			for _, c := range w.states[:to-from] {
				payload += c.bytes
			}
			if payload < res.Downloaded {
				t.Errorf("%s cell %d: access taps saw %d payload bytes, players downloaded %d", f.Name, cell, payload, res.Downloaded)
			}
			if res.Downloaded == 0 || offered(tr.CoreDown) == 0 {
				t.Errorf("%s cell %d: no traffic (downloaded %d, core offered %d)", f.Name, cell, res.Downloaded, offered(tr.CoreDown))
			}
		}
	}
}
