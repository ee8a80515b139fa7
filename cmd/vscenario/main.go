// Command vscenario runs declarative streaming scenarios: any player ×
// vantage profile × arrival process × dynamics timeline, on isolated
// per-session paths or on one shared bottleneck.
//
// Usage:
//
//	vscenario -list
//	vscenario -player flash -profile Residence \
//	    -down "rate@30s=800kbps; loss@90s=0.02; outage@120s=5s"
//	vscenario -player chrome -sessions 8 -shared \
//	    -arrival flashcrowd -window 60s -duration 180s
//
// Dynamics timeline syntax (see scenario.ParseDynamics):
//
//	rate@30s=2Mbps; rate@60s+10s=10Mbps; delay@90s=200ms;
//	loss@120s=0.02; outage@150s=5s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/tcp"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list players and profiles, then exit")
		playerF = flag.String("player", "flash", "player kind (see -list)")
		profile = flag.String("profile", "Research", "vantage profile name")
		sess    = flag.Int("sessions", 1, "number of sessions")
		arrival = flag.String("arrival", "allatonce", "arrival process: all-at-once|staggered|poisson|flash-crowd (or allatonce, uniform, flashcrowd)")
		window  = flag.Duration("window", 60*time.Second, "arrival window")
		rate    = flag.Float64("rate", 0, "poisson arrivals per second (0 = sessions/window)")
		downDyn = flag.String("down", "", "downstream dynamics timeline")
		upDyn   = flag.String("up", "", "upstream dynamics timeline")
		dur     = flag.Duration("duration", session.DefaultDuration, "capture horizon")
		seed    = flag.Int64("seed", 1, "random seed")
		shared  = flag.Bool("shared", false, "run all sessions on one shared bottleneck (dumbbell)")
		workers = flag.Int("workers", 0, "worker pool size for isolated runs (0 = one per CPU)")
		cc      = flag.String("cc", "", "server congestion control: reno|cubic|bbr (empty = reno)")
		aqm     = flag.String("aqm", "", "queue policy on the path links: droptail|red|codel (empty = droptail)")
	)
	flag.Parse()

	if *list {
		fmt.Println("players:")
		for _, k := range scenario.PlayerKinds() {
			fmt.Printf("  %-16s (%s: %s)\n", k, k.Service(), k.New().Name())
		}
		fmt.Println("profiles:")
		for _, p := range netem.Profiles() {
			fmt.Printf("  %-10s %.1f/%.1f Mbps, RTT %v, loss %.3f%%\n",
				p.Name, float64(p.Down)/1e6, float64(p.Up)/1e6, p.RTT, p.Loss*100)
		}
		return
	}

	kind, ok := scenario.PlayerKindByName(*playerF)
	if !ok {
		fail("unknown player %q (try -list)", *playerF)
	}
	prof, ok := netem.ProfileByName(*profile)
	if !ok {
		fail("unknown profile %q (try -list)", *profile)
	}
	ak, err := scenario.ParseArrivalKind(*arrival)
	if err != nil {
		fail("%v", err)
	}
	down, err := scenario.ParseDynamics(*downDyn)
	if err != nil {
		fail("-down: %v", err)
	}
	up, err := scenario.ParseDynamics(*upDyn)
	if err != nil {
		fail("-up: %v", err)
	}
	if !tcp.ValidCC(*cc) {
		fail("-cc: unknown congestion control %q (%s)", *cc, strings.Join(tcp.CCKinds(), "|"))
	}
	if aq, err := netem.ParseAqm(*aqm); err != nil {
		fail("-aqm: %v", err)
	} else {
		prof.AQM = aq
	}
	sp := scenario.Spec{
		Profile:  prof,
		Player:   kind,
		Sessions: *sess,
		Arrival:  scenario.Arrival{Kind: ak, Window: *window, Rate: *rate},
		Duration: *dur,
		Seed:     *seed,
		Down:     down,
		Up:       up,
	}
	sp.ServerTCP.CC = *cc
	if err := sp.Validate(); err != nil {
		fail("%v", err)
	}

	fmt.Printf("== scenario: %s/%s x%d ==\n", prof.Name, kind, *sess)
	fmt.Printf("arrival %s over %v; down dynamics: %d steps; up dynamics: %d steps; horizon %v\n",
		ak, *window, len(down.Steps), len(up.Steps), *dur)
	fmt.Printf("%-8s %-10s %-14s %-16s %-8s %-10s %s\n",
		"session", "start", "downloaded", "strategy", "blocks", "medianKB", "retrans")
	if *shared {
		res := scenario.RunShared(sp)
		for i, r := range res.Outcomes {
			printRow(i, r)
		}
		fmt.Printf("bottleneck: offered %d, dropped %d (%.3f%%, %d in outages), unrouted %d, aggregate %.1f Mbps\n",
			res.Offered, res.Dropped, res.InducedLoss*100, res.OutageDrops, res.Unrouted, res.AggregateMbps)
		fmt.Printf("strategy mix: %s\n", res.StrategyMix())
		return
	}
	results := scenario.RunIsolated(runner.Options{Workers: *workers}, sp)
	for i, r := range results {
		printRow(i, r)
	}
}

// printRow renders one session's outcome line.
func printRow(i int, r *session.Result) {
	a := r.Analysis
	fmt.Printf("%-8d %-10v %-14s %-16s %-8d %-10.0f %.2f%%\n",
		i, r.Config.StartAt.Round(time.Millisecond),
		fmt.Sprintf("%.2f MB", float64(r.Downloaded)/1e6),
		a.Strategy, len(a.Blocks), float64(a.MedianBlock())/1e3, a.RetransRate*100)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vscenario: "+format+"\n", args...)
	os.Exit(1)
}
