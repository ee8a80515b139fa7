package main

import (
	"maps"
	"regexp"
	"strings"
	"testing"
)

func rep(benchmarks ...Result) Report {
	return Report{Benchmarks: benchmarks}
}

func TestCompareDeltaTable(t *testing.T) {
	oldRep := rep(
		Result{Name: "BenchmarkSingleSession", NsPerOp: 20e6, BytesPerOp: 400_000, AllocsPerOp: 1000},
		Result{Name: "BenchmarkFleet/clients=1024", NsPerOp: 10e9, BytesPerOp: 160e6, AllocsPerOp: 175_000},
	)
	newRep := rep(
		Result{Name: "BenchmarkSingleSession", NsPerOp: 15e6, BytesPerOp: 400_000, AllocsPerOp: 900},
		Result{Name: "BenchmarkFleet/clients=1024", NsPerOp: 8e9, BytesPerOp: 150e6, AllocsPerOp: 180_000},
	)
	table, fail := compareReports(oldRep, newRep, nil, 0, 0)
	if fail {
		t.Fatal("fail with no threshold set")
	}
	for _, want := range []string{
		"BenchmarkSingleSession",
		"-25.0%", // SingleSession ns/op delta
		"-10.0%", // SingleSession allocs delta
		"BenchmarkFleet/clients=1024",
		"per client",
		"-20.0%", // Fleet ns/op delta
		"+2.9%",  // Fleet allocs delta
		"worst allocs/op change: +2.9% (BenchmarkFleet/clients=1024)", // summary
	} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// Per-client derivation: 8e9 ns over 1024 clients = 7.81ms/client.
	if !strings.Contains(table, "7.81ms") {
		t.Fatalf("table missing per-client ns value 7.81ms:\n%s", table)
	}
}

func TestCompareFailAllocsThreshold(t *testing.T) {
	oldRep := rep(Result{Name: "BenchmarkX", NsPerOp: 1e6, AllocsPerOp: 100})
	newRep := rep(Result{Name: "BenchmarkX", NsPerOp: 1e6, AllocsPerOp: 130})
	table, fail := compareReports(oldRep, newRep, nil, 25, 0)
	if !fail {
		t.Fatalf("+30%% allocs must fail a 25%% gate:\n%s", table)
	}
	if !strings.Contains(table, "FAIL: allocs/op regression exceeds 25.0%") {
		t.Fatalf("missing FAIL line:\n%s", table)
	}
	if _, fail := compareReports(oldRep, newRep, nil, 35, 0); fail {
		t.Fatal("+30% allocs must pass a 35% gate")
	}
	// Improvements never trip the gate.
	better := rep(Result{Name: "BenchmarkX", NsPerOp: 1e6, AllocsPerOp: 50})
	if _, fail := compareReports(oldRep, better, nil, 25, 0); fail {
		t.Fatal("alloc improvement tripped the gate")
	}
}

// TestCompareFailBytesThreshold pins the fleet-memory gate: a B/op
// regression past the threshold fails the compare even when allocs/op
// is flat. Because the per-client rows divide both reports by the same
// client count, this is exactly the B/op/client gate for the
// BenchmarkFleet/clients=N rows.
func TestCompareFailBytesThreshold(t *testing.T) {
	oldRep := rep(Result{Name: "BenchmarkFleet/clients=1024", NsPerOp: 1e9, BytesPerOp: 100e6, AllocsPerOp: 100})
	newRep := rep(Result{Name: "BenchmarkFleet/clients=1024", NsPerOp: 1e9, BytesPerOp: 130e6, AllocsPerOp: 100})
	table, fail := compareReports(oldRep, newRep, nil, 0, 25)
	if !fail {
		t.Fatalf("+30%% B/op must fail a 25%% gate:\n%s", table)
	}
	if !strings.Contains(table, "FAIL: B/op regression exceeds 25.0%") {
		t.Fatalf("missing FAIL line:\n%s", table)
	}
	if !strings.Contains(table, "worst B/op change: +30.0% (BenchmarkFleet/clients=1024)") {
		t.Fatalf("missing worst-B/op summary:\n%s", table)
	}
	if _, fail := compareReports(oldRep, newRep, nil, 0, 35); fail {
		t.Fatal("+30% B/op must pass a 35% gate")
	}
	better := rep(Result{Name: "BenchmarkFleet/clients=1024", NsPerOp: 1e9, BytesPerOp: 20e6, AllocsPerOp: 100})
	if _, fail := compareReports(oldRep, better, nil, 0, 25); fail {
		t.Fatal("B/op improvement tripped the gate")
	}
}

// TestCompareExactCounters pins the work-counter gate: with no flag
// set, a compared row whose events/op, hops/op or pkts/client differs
// by one, or is recorded by one report only, fails the compare, while
// the jittering per-client timing column may move freely.
func TestCompareExactCounters(t *testing.T) {
	fleet := func(metrics map[string]float64) Result {
		return Result{Name: "BenchmarkFleet/clients=256", NsPerOp: 1e9, BytesPerOp: 1e6, AllocsPerOp: 100, Metrics: metrics}
	}
	base := map[string]float64{"events/op": 64313, "hops/op": 8003757, "pkts/client": 6516, "ns/op/client": 8.7e6}
	with := func(unit string, v float64) map[string]float64 {
		m := maps.Clone(base)
		m[unit] = v
		return m
	}
	without := func(unit string) map[string]float64 {
		m := maps.Clone(base)
		delete(m, unit)
		return m
	}
	if table, fail := compareReports(rep(fleet(base)), rep(fleet(with("ns/op/client", 9.9e6))), nil, 0, 0); fail {
		t.Fatalf("equal counters failed the compare:\n%s", table)
	}
	for _, tc := range []struct {
		name    string
		newMets map[string]float64
		want    string
	}{
		{"events/op", with("events/op", 64314), "counter changed: BenchmarkFleet/clients=256 events/op: 64313 -> 64314"},
		{"hops/op", with("hops/op", 8003756), "counter changed: BenchmarkFleet/clients=256 hops/op: 8003757 -> 8003756"},
		{"pkts/client", with("pkts/client", 6517), "counter changed: BenchmarkFleet/clients=256 pkts/client: 6516 -> 6517"},
		{"dropped", without("hops/op"), "counter changed: BenchmarkFleet/clients=256 hops/op: 8003757 -> absent"},
	} {
		table, fail := compareReports(rep(fleet(base)), rep(fleet(tc.newMets)), nil, 0, 0)
		if !fail {
			t.Errorf("%s: a changed counter passed the compare:\n%s", tc.name, table)
		}
		for _, want := range []string{tc.want, "FAIL: 1 deterministic counter(s) differ"} {
			if !strings.Contains(table, want) {
				t.Errorf("%s: missing %q:\n%s", tc.name, want, table)
			}
		}
	}
}

func TestCompareOnlyFilter(t *testing.T) {
	oldRep := rep(
		Result{Name: "BenchmarkKeep", NsPerOp: 1e6, AllocsPerOp: 10},
		Result{Name: "BenchmarkSkip", NsPerOp: 1e6, AllocsPerOp: 10},
	)
	newRep := rep(
		Result{Name: "BenchmarkKeep", NsPerOp: 2e6, AllocsPerOp: 10},
		Result{Name: "BenchmarkSkip", NsPerOp: 1e6, AllocsPerOp: 100},
	)
	table, fail := compareReports(oldRep, newRep, regexp.MustCompile("Keep"), 25, 0)
	if fail {
		t.Fatalf("filtered-out regression tripped the gate:\n%s", table)
	}
	if strings.Contains(table, "BenchmarkSkip") {
		t.Fatalf("filtered benchmark rendered:\n%s", table)
	}
	if !strings.Contains(table, "BenchmarkKeep") {
		t.Fatalf("kept benchmark missing:\n%s", table)
	}
}

func TestCompareMissingBenchmarks(t *testing.T) {
	oldRep := rep(
		Result{Name: "BenchmarkGone", NsPerOp: 1e6, AllocsPerOp: 10},
		Result{Name: "BenchmarkBoth", NsPerOp: 1e6, AllocsPerOp: 10},
	)
	newRep := rep(
		Result{Name: "BenchmarkBoth", NsPerOp: 1e6, AllocsPerOp: 10},
		Result{Name: "BenchmarkNew", NsPerOp: 1e6, AllocsPerOp: 10},
	)
	table, fail := compareReports(oldRep, newRep, nil, 25, 0)
	if fail {
		t.Fatalf("unchanged benchmark tripped the gate:\n%s", table)
	}
	if !strings.Contains(table, "only in old: BenchmarkGone") {
		t.Fatalf("missing only-in-old note:\n%s", table)
	}
	if !strings.Contains(table, "only in new: BenchmarkNew") {
		t.Fatalf("missing only-in-new note:\n%s", table)
	}
}

// TestCompareOnlyMissingBenchmarks pins the gate's completeness rule:
// a benchmark that -only selects must be in both reports, and -only
// must select one, or a gated row dropped from the new run (or a
// misspelled pattern) would pass unchecked.
func TestCompareOnlyMissingBenchmarks(t *testing.T) {
	both := Result{Name: "BenchmarkBoth", NsPerOp: 1e6, AllocsPerOp: 10}
	gone := Result{Name: "BenchmarkGone", NsPerOp: 1e6, AllocsPerOp: 10}
	only := regexp.MustCompile("Both|Gone")
	for _, tc := range []struct {
		name           string
		oldRep, newRep Report
		want           string
	}{
		{"dropped from new", rep(both, gone), rep(both), "only in old: BenchmarkGone"},
		{"absent from old", rep(both), rep(both, gone), "only in new: BenchmarkGone"},
	} {
		table, fail := compareReports(tc.oldRep, tc.newRep, only, 25, 0)
		if !fail {
			t.Errorf("%s: a selected row missing from one report must fail:\n%s", tc.name, table)
		}
		for _, want := range []string{tc.want, "FAIL: 1 benchmark(s) matching -only are missing from one report"} {
			if !strings.Contains(table, want) {
				t.Errorf("%s: missing %q:\n%s", tc.name, want, table)
			}
		}
	}
	// A row outside the -only selection may be missing.
	if table, fail := compareReports(rep(both, gone), rep(both), regexp.MustCompile("Both"), 25, 0); fail {
		t.Fatalf("a row -only does not select tripped the gate:\n%s", table)
	}
	// A pattern that selects nothing gates nothing.
	table, fail := compareReports(rep(both), rep(both), regexp.MustCompile("Bothe"), 25, 0)
	if !fail || !strings.Contains(table, "FAIL: -only matches no benchmark") {
		t.Fatalf("an -only pattern matching no benchmark must fail:\n%s", table)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldRep := rep(Result{Name: "BenchmarkZ", NsPerOp: 1e6})
	newRep := rep(Result{Name: "BenchmarkZ", NsPerOp: 1e6, AllocsPerOp: 50})
	table, fail := compareReports(oldRep, newRep, nil, 25, 0)
	if fail {
		t.Fatalf("zero-baseline allocs must not trip the gate:\n%s", table)
	}
	if !strings.Contains(table, "?") {
		t.Fatalf("zero baseline should render '?' delta:\n%s", table)
	}
}

func TestCompareUnitFormatting(t *testing.T) {
	if got := fmtNs(11_426_951_192); got != "11.427s" {
		t.Fatalf("fmtNs = %q", got)
	}
	if got := fmtNs(18_969_775); got != "18.97ms" {
		t.Fatalf("fmtNs = %q", got)
	}
	if got := fmtBytes(160_697_056); got != "153.25MB" {
		t.Fatalf("fmtBytes = %q", got)
	}
	if got := fmtCount(174_932); got != "174.9k" {
		t.Fatalf("fmtCount = %q", got)
	}
	if got := fmtCount(974); got != "974" {
		t.Fatalf("fmtCount = %q", got)
	}
}
