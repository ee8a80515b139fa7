package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// bound is how far an end-to-end metric's median may move, as a share
// of the first set's median, and which direction is better.
type bound struct {
	rel          float64
	higherBetter bool
}

func agreeFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bounds, err := readBounds(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(aPath)
	if err != nil {
		return false, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return false, err
	}
	return agree(w, bounds, a, b), nil
}

// agree compares two sets, each (metric, workload) pair on its own row.
// A pair agrees when the medians differ by at most the bound; it is
// unresolved, and not held against the sets, when either set's
// interquartile spread exceeds the bound. The sets disagree when a
// resolved pair differs by more than its bound, a pair is missing, or
// any rep of either set failed.
func agree(w io.Writer, bounds map[string]bound, a, b *report) bool {
	ok := true
	for _, set := range []struct {
		label string
		r     *report
	}{{"A", a}, {"B", b}} {
		for _, wl := range set.r.Workloads {
			if wl.Failed > 0 || !wl.Correct {
				fmt.Fprintf(w, "set %s: %s failed %d of %d reps\n", set.label, wl.Name, wl.Failed, wl.Attempted)
				ok = false
			}
		}
	}
	names := make([]string, 0, len(bounds))
	for n := range bounds {
		names = append(names, n)
	}
	sort.Strings(names)

	inB := map[string]*workloadReport{}
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-14s %-12s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound", "verdict")
	seen := map[string]bool{}
	for _, wa := range a.Workloads {
		seen[wa.Name] = true
		wb, found := inB[wa.Name]
		if !found {
			fmt.Fprintf(w, "%-14s missing from set B\n", wa.Name)
			ok = false
			continue
		}
		for _, name := range names {
			bd := bounds[name]
			sa, okA := wa.Metrics[name]
			sb, okB := wb.Metrics[name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-12s missing from a set\n", wa.Name, name)
				ok = false
				continue
			}
			delta := 0.0
			if sa.Median != 0 {
				delta = (sb.Median - sa.Median) / sa.Median
			}
			verdict := "agree"
			switch {
			case math.Max(sa.spread(), sb.spread()) > bd.rel:
				verdict = "unresolved (spread exceeds bound)"
			case math.Abs(delta) > bd.rel:
				ok = false
				verdict = "DISAGREE: B better"
				if (delta > 0) != bd.higherBetter {
					verdict = "DISAGREE: B worse"
				}
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %25s %12.6g %25s %+7.2f%% %5.0f%%  %s\n",
				wa.Name, name, sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Q1, sb.Q3), delta*100, bd.rel*100, verdict)
		}
	}
	for _, wb := range b.Workloads {
		if !seen[wb.Name] {
			fmt.Fprintf(w, "%-14s missing from set A\n", wb.Name)
			ok = false
		}
	}
	return ok
}
