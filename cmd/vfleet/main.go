// Command vfleet runs a fleet-scale simulation: hundreds of thousands
// of concurrent streaming sessions of a strategy mix on the
// multi-tier tree topology (per-client access links → shared
// aggregation links → one core uplink), reporting streaming aggregate
// statistics — per-tier utilization, per-client QoE quantiles, and
// the aggregation-link burstiness the paper's closing argument is
// about. Memory is O(clients), never O(packets), and results are
// bit-identical for any -workers or -distributed value.
//
// Usage:
//
//	vfleet -clients 1000 -mix flash:1+firefox:1 -duration 120
//	vfleet -clients 256 -mix chrome -arrival poisson -series
//	vfleet -clients 1000000 -duration 5 -distributed 4 -result-out fleet.bin
//
// With -distributed N the fleet's cells are split into N contiguous
// ranges, each simulated by a re-invocation of this binary (the hidden
// -cells lo:hi child mode) streaming serialized per-cell results over
// its stdout; the parent merges the streams into the same bytes a
// single-process run produces.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vfleet:", err)
	os.Exit(1)
}

func main() {
	clients := flag.Int("clients", 256, "concurrent sessions")
	mix := flag.String("mix", "flash:1+firefox:1", "strategy mix, e.g. flash:2+firefox:1, weights 1..1024 (see -players)")
	duration := flag.Float64("duration", 120, "horizon seconds")
	warmup := flag.Float64("warmup", 0, "statistics warm-up seconds (0 = duration/4)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "cell worker pool (0 = one per CPU); results identical for any value")
	perAgg := flag.Int("peragg", 0, "clients per aggregation link (0 = 32)")
	bin := flag.Float64("bin", 1, "utilization bin seconds")
	arrival := flag.String("arrival", "staggered", "arrival process: all-at-once, staggered, poisson, flash-crowd (or allatonce, uniform, flashcrowd)")
	window := flag.Float64("window", 30, "arrival window seconds")
	accessDown := flag.Float64("access-down", 0, "access down-link Mbps (0 = 6)")
	aggDown := flag.Float64("agg-down", 0, "aggregation down-link Mbps (0 = 200)")
	coreDown := flag.Float64("core-down", 0, "core down-link Mbps (0 = 2000)")
	series := flag.Bool("series", false, "print the per-bin core/agg utilization and concurrency series")
	players := flag.Bool("players", false, "list player kind names and exit")
	abrMode := flag.Bool("abr", false, "run the ABR headline comparison: fixed-top vs rate-based vs buffer-based controllers under a rate-drop timeline")
	down := flag.String("down", "", `dynamics timeline for every aggregation downstream link, e.g. "rate@40s=24Mbps; outage@90s=5s" (with -abr, default drops to 24 Mbps at duration/3)`)
	ccMix := flag.String("cc", "", "server congestion-control mix per client, e.g. cubic or reno:2+cubic:1+bbr:1 (empty = reno)")
	aqm := flag.String("aqm", "", "queue policy on aggregation+access downstream links: droptail, red or codel (empty = droptail)")
	distributed := flag.Int("distributed", 0, "fork the run across N OS processes (merged result is bit-identical to -distributed 0)")
	cellRange := flag.String("cells", "", "child mode: run cells lo:hi and stream serialized per-cell results to stdout")
	resultOut := flag.String("result-out", "", "write the serialized FleetResult to this file (bit-identical across -workers/-distributed)")
	freshWorlds := flag.Bool("fresh-worlds", false, "build a fresh cell world per cell instead of recycling one per worker (slow; results are bit-identical either way)")
	memstats := flag.Bool("memstats", false, "print Go runtime memory statistics after the run: the live heap after a GC, and the run's total alloc and GC count")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file (taken after the run)")
	flag.Parse()

	if *players {
		for _, k := range scenario.PlayerKinds() {
			fmt.Printf("%-16s (%s)\n", k, k.Service())
		}
		return
	}
	entries, err := scenario.ParseMix(*mix)
	if err != nil {
		fatal(err)
	}
	kind, err := scenario.ParseArrivalKind(*arrival)
	if err != nil {
		fatal(err)
	}
	dur := time.Duration(*duration * float64(time.Second))
	var dyn netem.Dynamics
	if *down != "" {
		dyn, err = scenario.ParseDynamics(*down)
		if err != nil {
			fatal(err)
		}
	} else if *abrMode {
		dyn = netem.Dynamics{}.Then(netem.RateStep(dur/3, 24*netem.Mbps))
	}
	f := scenario.Fleet{
		Mix:      entries,
		Clients:  *clients,
		Duration: dur,
		Warmup:   time.Duration(*warmup * float64(time.Second)),
		Seed:     *seed,
		Down:     dyn,
		UtilBin:  time.Duration(*bin * float64(time.Second)),
		Arrival:  scenario.Arrival{Kind: kind, Window: time.Duration(*window * float64(time.Second))},
	}
	f.FreshWorlds = *freshWorlds
	f.Tree.ClientsPerAgg = *perAgg
	f.Tree.Access.Down = netem.Bandwidth(*accessDown) * netem.Mbps
	f.Tree.Agg.Down = netem.Bandwidth(*aggDown) * netem.Mbps
	f.Tree.Core.Down = netem.Bandwidth(*coreDown) * netem.Mbps
	if *ccMix != "" {
		f.CCMix, err = scenario.ParseCCMix(*ccMix)
		if err != nil {
			fatal(err)
		}
	}
	if *aqm != "" {
		a, err := netem.ParseAqm(*aqm)
		if err != nil {
			fatal(err)
		}
		f.Tree.Agg.AQM = a
		f.Tree.Access.AQM = a
	}
	if err := f.Validate(); err != nil {
		fatal(err)
	}
	if *abrMode && (*distributed > 0 || *cellRange != "" || *resultOut != "") {
		fatal(fmt.Errorf("-abr runs three fleets; it cannot combine with -distributed, -cells or -result-out"))
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer mf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fatal(err)
			}
		}()
	}

	// Child mode: simulate one contiguous cell range, stream serialized
	// per-cell results to stdout, print nothing else.
	if *cellRange != "" {
		lo, hi, err := parseRange(*cellRange)
		if err != nil {
			fatal(err)
		}
		if err := scenario.WriteFleetCells(os.Stdout, runner.Options{Workers: *workers}, f, lo, hi); err != nil {
			fatal(err)
		}
		return
	}

	if *abrMode {
		// The headline comparison: the same fleet under the same
		// timeline, once per controller. Mix is overridden.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "mix" {
				fmt.Fprintln(os.Stderr, "vfleet: -abr runs one fleet per controller; ignoring -mix")
			}
		})
		start := time.Now()
		for _, k := range []scenario.PlayerKind{scenario.AbrFixed, scenario.AbrRate, scenario.AbrBuffer} {
			cf := f
			cf.Name = "abr/" + k.String()
			cf.Mix = []scenario.MixEntry{{Player: k, Weight: 1}}
			res := scenario.RunFleet(runner.Options{Workers: *workers}, cf)
			fmt.Print(res.Render())
			fmt.Println()
		}
		fmt.Printf("[abr comparison completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}

	start := time.Now()
	var res *scenario.FleetResult
	if *distributed > 0 {
		res, err = runDistributed(f, *distributed)
		if err != nil {
			fatal(err)
		}
	} else {
		res = scenario.RunFleet(runner.Options{Workers: *workers}, f)
	}
	fmt.Print(res.Render())
	if *series {
		fmt.Printf("\n# %-8s %-12s %-12s %-12s\n", "bin s", "core Mbps", "agg Mbps", "concurrent")
		core := res.CoreUtil.PerSecond()
		agg := res.AggUtil.PerSecond()
		conc := res.Concurrency()
		for i := range core {
			fmt.Printf("%-10.1f %-12.2f %-12.2f %-12.0f\n",
				float64(i)*res.CoreUtil.Width.Seconds(), core[i]*8/1e6, agg[i]*8/1e6, conc[i])
		}
	}
	if *resultOut != "" {
		data, err := res.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*resultOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("[result: %d bytes -> %s]\n", len(data), *resultOut)
	}
	if *memstats {
		// The run's totals come first, so the collection that makes
		// the heap figure the live heap does not count in them.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		total, gcs := ms.TotalAlloc, ms.NumGC
		runtime.GC()
		runtime.ReadMemStats(&ms)
		fmt.Printf("[memstats: live heap %.1f MB, total alloc %.1f MB, gc %d]\n",
			float64(ms.HeapAlloc)/(1<<20), float64(total)/(1<<20), gcs)
	}
	fmt.Printf("[fleet completed in %v]\n", time.Since(start).Round(time.Millisecond))
}

func parseRange(s string) (lo, hi int, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("bad -cells range %q (want lo:hi)", s)
	}
	return lo, hi, nil
}

// runDistributed splits the fleet's cells into n contiguous ranges and
// re-invokes this binary once per range (child mode -cells lo:hi).
// Children stream serialized per-cell results over stdout — never
// locally folded partials — so the parent performs the one global left
// fold in cell order and the merged result is bit-identical to a
// single-process run.
func runDistributed(f scenario.Fleet, n int) (*scenario.FleetResult, error) {
	cells := f.Cells()
	if n > cells {
		n = cells
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Each child parses the parent's own flags as text, so it derives
	// the identical Fleet; the spec itself never crosses the pipe.
	// Flags only the parent acts on stay behind: children would fork
	// again or overwrite the parent's output and profiles.
	var base []string
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "distributed", "result-out", "cpuprofile", "memprofile":
			return
		}
		base = append(base, "-"+fl.Name+"="+fl.Value.String())
	})

	type child struct {
		cmd *exec.Cmd
		out bytes.Buffer
	}
	kids := make([]*child, n)
	var wg sync.WaitGroup
	per, rem := cells/n, cells%n
	lo := 0
	for i := range kids {
		hi := lo + per
		if i < rem {
			hi++
		}
		args := append(append([]string(nil), base...), "-cells", fmt.Sprintf("%d:%d", lo, hi))
		k := &child{cmd: exec.Command(exe, args...)}
		k.cmd.Stderr = os.Stderr
		pipe, err := k.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := k.cmd.Start(); err != nil {
			return nil, err
		}
		kids[i] = k
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(&k.out, pipe)
		}()
		lo = hi
	}
	wg.Wait()
	readers := make([]io.Reader, n)
	for i, k := range kids {
		if err := k.cmd.Wait(); err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		readers[i] = &k.out
	}
	return scenario.MergeFleetCellStreams(f, readers...)
}
