package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseCustomMetricColumns pins the property the fleet benchmarks
// rely on: `go test -bench` lines carry arbitrary extra b.ReportMetric
// columns (`<value> <unit>` pairs like ns/op/client) and the parser
// must extract ns/op, B/op and allocs/op without being confused by
// them — or by their position relative to the standard columns — while
// recording the custom columns verbatim in Result.Metrics.
func TestParseCustomMetricColumns(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkSingleSession-8       	      36	  31092341 ns/op	  804416 B/op	    1045 allocs/op
BenchmarkFleet/clients=4096   	       1	28712345678 ns/op	   7009.6 ns/op/client	  122000 B/op/client	    63887 events/op	   7976753 hops/op	  3456.0 pkts/client	 498000000 B/op	  401234 allocs/op
BenchmarkNoMem 	     100	    123456 ns/op
PASS
ok  	repro	92.1s
`
	got := parse(strings.NewReader(out), nil, 8)
	want := []Result{
		{Name: "BenchmarkSingleSession", Iterations: 36, NsPerOp: 31092341, BytesPerOp: 804416, AllocsPerOp: 1045},
		{Name: "BenchmarkFleet/clients=4096", Iterations: 1, NsPerOp: 28712345678, BytesPerOp: 498000000, AllocsPerOp: 401234,
			Metrics: map[string]float64{"ns/op/client": 7009.6, "B/op/client": 122000, "pkts/client": 3456,
				"events/op": 63887, "hops/op": 7976753}},
		{Name: "BenchmarkNoMem", Iterations: 100, NsPerOp: 123456},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseIgnoresNonBenchLines: headers, PASS/ok trailers and fuzz
// noise never produce results, and the empty case is [] not nil (the
// JSON schema promises an array).
func TestParseIgnoresNonBenchLines(t *testing.T) {
	got := parse(strings.NewReader("goos: linux\nPASS\nok \trepro\t1.0s\n"), nil, 1)
	if got == nil || len(got) != 0 {
		t.Fatalf("parse of non-bench output = %#v, want empty non-nil slice", got)
	}
}

// TestParseStripsOnlyGOMAXPROCS: go test appends "-<GOMAXPROCS>" to
// every benchmark name unless GOMAXPROCS is 1, and parse strips that
// suffix alone. A sub-benchmark whose own name ends in "-2" stays apart
// from its sibling at GOMAXPROCS 1 and at GOMAXPROCS 2.
func TestParseStripsOnlyGOMAXPROCS(t *testing.T) {
	want := []Result{
		{Name: "BenchmarkExperiment/fig9-2", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkExperiment/fig9", Iterations: 1, NsPerOp: 200},
	}
	for _, c := range []struct {
		procs  int
		suffix string
	}{{1, ""}, {2, "-2"}} {
		out := "BenchmarkExperiment/fig9-2" + c.suffix + " \t1\t100 ns/op\n" +
			"BenchmarkExperiment/fig9" + c.suffix + " \t1\t200 ns/op\n"
		if got := parse(strings.NewReader(out), nil, c.procs); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: parse:\n got %+v\nwant %+v", c.procs, got, want)
		}
	}
}

// TestReportStamp pins the -stamp satellite: a pinned RFC3339 instant
// passes through verbatim (reproducible BENCH_*.json diffs in CI),
// the default is a valid RFC3339 wall-clock read, and garbage errors
// out instead of silently stamping an unparseable report.
func TestReportStamp(t *testing.T) {
	const pinned = "2026-08-08T00:00:00Z"
	if got, err := reportStamp(pinned); err != nil || got != pinned {
		t.Fatalf("reportStamp(%q) = %q, %v; want it verbatim", pinned, got, err)
	}
	got, err := reportStamp("")
	if err != nil {
		t.Fatalf("reportStamp(\"\"): %v", err)
	}
	if _, err := time.Parse(time.RFC3339, got); err != nil {
		t.Fatalf("default stamp %q is not RFC3339: %v", got, err)
	}
	if _, err := reportStamp("yesterday-ish"); err == nil {
		t.Fatal("reportStamp accepted an unparseable stamp")
	}
}
