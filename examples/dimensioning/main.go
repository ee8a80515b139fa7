// Dimensioning uses the Section 6 model the way a network operator
// would: given an expected video workload, how much link capacity does
// video streaming need, and how does the answer change when the
// platform raises its default encoding rate (the paper's smoothness
// result)?
//
//	go run ./examples/dimensioning
package main

import (
	"fmt"
	"math"

	"repro/internal/model"
)

func main() {
	fmt.Println("=== dimensioning a campus uplink for video streaming (Section 6.1) ===")
	fmt.Println()

	// A campus: one new streaming session every 2 seconds on average,
	// 4-minute videos, bulk phases at 10 Mbps.
	base := model.Params{
		Lambda:       0.5,
		MeanRate:     1e6,
		MeanDuration: 240,
		MeanDownRate: 10e6,
	}
	fmt.Printf("workload: %s\n\n", base)
	fmt.Printf("%-22s %-12s %-12s %-10s\n", "scenario", "E[R] Mbps", "+2sigma", "CoV")
	for _, sc := range []struct {
		label string
		scale float64
	}{
		{"today (360p mix)", 1},
		{"HD shift (2x rate)", 2},
		{"full HD shift (4x)", 4},
	} {
		p := base
		p.MeanRate *= sc.scale
		fmt.Printf("%-22s %-12.1f %-12.1f %-10.3f\n",
			sc.label, model.MeanAggregate(p)/1e6, model.Dimension(p, 2)/1e6, model.CoV(p))
	}
	fmt.Println()
	fmt.Println("E[R] grows linearly with the encoding rate while the coefficient of")
	fmt.Println("variation falls as 1/sqrt(rate): higher-rate traffic is smoother, so")
	fmt.Println("the provisioned headroom above the mean shrinks in relative terms —")
	fmt.Println("the paper's Section 6.1 observation.")
	fmt.Println()

	// The strategy-independence result: the same answer holds whether
	// the platform uses bulk transfers or ON-OFF pacing.
	fmt.Println("Monte-Carlo check (strategy independence of mean and variance):")
	for _, s := range []model.Strategy{model.Bulk, model.ShortCycles, model.LongCycles} {
		cfg := model.SimConfig{
			Params: base, Strategy: s,
			BlockBits: 64 << 13, Accum: 1.25,
			Horizon: 6000, Step: 1, Seed: 11,
			RateJitter: 0.3, DurJitter: 0.3,
		}
		if s == model.LongCycles {
			cfg.BlockBits = 4 << 23
		}
		r := model.Simulate(cfg)
		fmt.Printf("  %-14s mean %6.1f Mbps  std %6.1f Mbps\n", s, r.Mean/1e6, math.Sqrt(r.Var)/1e6)
	}
	fmt.Printf("  %-14s mean %6.1f Mbps  std %6.1f Mbps\n", "closed form",
		model.MeanAggregate(base)/1e6, math.Sqrt(model.VarAggregate(base))/1e6)
}
