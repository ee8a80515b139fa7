package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark comparison: `vbench -compare old.json new.json` renders a
// benchstat-style delta table over two BENCH_<n>.json reports and, with
// -fail-allocs / -fail-bytes <pct>, exits non-zero when any
// benchmark's allocs/op or B/op regresses past the threshold — the CI
// perf-smoke gate. With -only, a selected benchmark missing from
// either report, or a pattern that selects none, fails the gate too. The fleet per-client columns
// divide both reports by the same client count, so the B/op gate is
// exactly the B/op/client gate for the BenchmarkFleet rows. The
// deterministic work counters are gated exactly, with no flag: a
// compared row whose exactCounters differ fails the compare.

// exactCounters are the b.ReportMetric units that count simulated work
// (scheduler events, lane hops, packets per client). They do not
// jitter, so any difference between two reports of a row means the
// simulation did different work.
var exactCounters = []string{"events/op", "hops/op", "pkts/client"}

// loadReport reads one BENCH_<n>.json file.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// clientsRe extracts the fleet-size sub-benchmark parameter, which
// drives the derived per-client rows.
var clientsRe = regexp.MustCompile(`clients=(\d+)`)

// delta formats a relative change as a signed percentage; a zero or
// missing baseline has no meaningful delta.
func delta(oldV, newV float64) string {
	if oldV == 0 {
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// pct returns the relative change in percent, NaN when undefined.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return math.NaN()
	}
	return (newV - oldV) / oldV * 100
}

func fmtNs(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

func fmtCount(v float64) string {
	if v >= 1e6 {
		return fmt.Sprintf("%.2fM", v/1e6)
	}
	if v >= 1e3 {
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// fmtCounter prints a counter exactly, or "absent" when the report
// does not record it.
func fmtCounter(v float64, ok bool) string {
	if !ok {
		return "absent"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// compareReports renders the delta table and reports whether any
// benchmark's allocs/op regression exceeds failAllocsPct or its B/op
// regression exceeds failBytesPct (a non-positive threshold never
// fails), or whether any compared row's exactCounters differ, a
// counter that only one report records included. only, when non-nil,
// restricts the comparison to matching benchmark names, which must
// then be the same, and at least one, in both reports.
func compareReports(oldRep, newRep Report, only *regexp.Regexp, failAllocsPct, failBytesPct float64) (string, bool) {
	newIdx := map[string]*Result{}
	for i := range newRep.Benchmarks {
		newIdx[newRep.Benchmarks[i].Name] = &newRep.Benchmarks[i]
	}
	oldIdx := map[string]bool{}

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "benchmark\tns/op old\tnew\tΔ\tB/op old\tnew\tΔ\tallocs/op old\tnew\tΔ\t\n")

	worst := math.Inf(-1)
	worstName := ""
	worstBytes := math.Inf(-1)
	worstBytesName := ""
	row := func(name string, o, n *Result, div float64) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			name,
			fmtNs(o.NsPerOp/div), fmtNs(n.NsPerOp/div), delta(o.NsPerOp, n.NsPerOp),
			fmtBytes(float64(o.BytesPerOp)/div), fmtBytes(float64(n.BytesPerOp)/div), delta(float64(o.BytesPerOp), float64(n.BytesPerOp)),
			fmtCount(float64(o.AllocsPerOp)/div), fmtCount(float64(n.AllocsPerOp)/div), delta(float64(o.AllocsPerOp), float64(n.AllocsPerOp)))
	}
	var onlyOld, onlyNew, counterDiffs []string
	compared := 0
	for i := range oldRep.Benchmarks {
		o := &oldRep.Benchmarks[i]
		oldIdx[o.Name] = true
		if only != nil && !only.MatchString(o.Name) {
			continue
		}
		n, ok := newIdx[o.Name]
		if !ok {
			onlyOld = append(onlyOld, o.Name)
			continue
		}
		compared++
		row(o.Name, o, n, 1)
		if m := clientsRe.FindStringSubmatch(o.Name); m != nil {
			if clients, err := strconv.ParseFloat(m[1], 64); err == nil && clients > 0 {
				row("  └ per client", o, n, clients)
			}
		}
		for _, unit := range exactCounters {
			ov, inOld := o.Metrics[unit]
			nv, inNew := n.Metrics[unit]
			if ov != nv || inOld != inNew {
				counterDiffs = append(counterDiffs, fmt.Sprintf("%s %s: %s -> %s", o.Name, unit, fmtCounter(ov, inOld), fmtCounter(nv, inNew)))
			}
		}
		if d := pct(float64(o.AllocsPerOp), float64(n.AllocsPerOp)); !math.IsNaN(d) && d > worst {
			worst, worstName = d, o.Name
		}
		if d := pct(float64(o.BytesPerOp), float64(n.BytesPerOp)); !math.IsNaN(d) && d > worstBytes {
			worstBytes, worstBytesName = d, o.Name
		}
	}
	for i := range newRep.Benchmarks {
		n := &newRep.Benchmarks[i]
		if only != nil && !only.MatchString(n.Name) {
			continue
		}
		if !oldIdx[n.Name] {
			onlyNew = append(onlyNew, n.Name)
		}
	}
	tw.Flush()
	for _, name := range onlyOld {
		fmt.Fprintf(&b, "only in old: %s\n", name)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(&b, "only in new: %s\n", name)
	}

	// A gate must compare every row it names: with -only set, a row
	// missing from either report, or a pattern that selects nothing,
	// fails, or a dropped or misspelled benchmark would pass unchecked.
	fail := false
	if missing := len(onlyOld) + len(onlyNew); only != nil && missing > 0 {
		fmt.Fprintf(&b, "FAIL: %d benchmark(s) matching -only are missing from one report\n", missing)
		fail = true
	} else if only != nil && compared == 0 {
		fmt.Fprintf(&b, "FAIL: -only matches no benchmark\n")
		fail = true
	}
	for _, d := range counterDiffs {
		fmt.Fprintf(&b, "counter changed: %s\n", d)
	}
	if len(counterDiffs) > 0 {
		fmt.Fprintf(&b, "FAIL: %d deterministic counter(s) differ\n", len(counterDiffs))
		fail = true
	}
	if !math.IsInf(worst, -1) {
		fmt.Fprintf(&b, "worst allocs/op change: %+.1f%% (%s)\n", worst, worstName)
		if failAllocsPct > 0 && worst > failAllocsPct {
			fmt.Fprintf(&b, "FAIL: allocs/op regression exceeds %.1f%%\n", failAllocsPct)
			fail = true
		}
	}
	if !math.IsInf(worstBytes, -1) {
		fmt.Fprintf(&b, "worst B/op change: %+.1f%% (%s)\n", worstBytes, worstBytesName)
		if failBytesPct > 0 && worstBytes > failBytesPct {
			fmt.Fprintf(&b, "FAIL: B/op regression exceeds %.1f%%\n", failBytesPct)
			fail = true
		}
	}
	return b.String(), fail
}

// runCompare is the -compare entry point; returns the process exit code.
func runCompare(args []string, onlyPat string, failAllocsPct, failBytesPct float64, out *os.File) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "vbench: -compare needs exactly two report paths: vbench -compare [-only re] [-fail-allocs pct] [-fail-bytes pct] old.json new.json")
		return 2
	}
	var only *regexp.Regexp
	if onlyPat != "" {
		var err error
		if only, err = regexp.Compile(onlyPat); err != nil {
			fmt.Fprintln(os.Stderr, "vbench: bad -only pattern:", err)
			return 2
		}
	}
	oldRep, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	newRep, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	table, fail := compareReports(oldRep, newRep, only, failAllocsPct, failBytesPct)
	fmt.Fprint(out, table)
	if fail {
		return 1
	}
	return 0
}
