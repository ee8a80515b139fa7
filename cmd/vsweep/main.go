// Command vsweep regenerates the paper's tables and figures at a
// chosen scale: it runs the per-experiment sweeps from
// internal/experiments and prints the rows/series the paper reports.
//
// Usage:
//
//	vsweep -list                  # every experiment id, in -exp all order
//	vsweep -exp table1            # one experiment
//	vsweep -exp all -n 16         # everything, 16 videos per cell
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all' (see -list)")
	n := flag.Int("n", 8, "videos per dataset/cell")
	seed := flag.Int64("seed", 1, "random seed")
	capture := flag.Float64("capture", 180, "per-session capture seconds")
	workers := flag.Int("workers", 0, "session worker pool size (0 = one per CPU); results are identical for any value")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exps := experiments.Registry()
	if *list {
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return
	}
	o := experiments.Options{
		N: *n, Seed: *seed,
		Duration: time.Duration(*capture * float64(time.Second)),
		Workers:  *workers,
	}
	if *exp != "all" {
		i := slices.IndexFunc(exps, func(e experiments.Experiment) bool { return e.ID == strings.ToLower(*exp) })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "vsweep: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		exps = exps[i : i+1]
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Print(e.Run(o))
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
