package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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
	got, err := parse(strings.NewReader(out), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := parse(strings.NewReader("goos: linux\nPASS\nok \trepro\t1.0s\n"), nil, 1)
	if err != nil || got == nil || len(got) != 0 {
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
		if got, err := parse(strings.NewReader(out), nil, c.procs); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: parse:\n got %+v\nwant %+v", c.procs, got, want)
		}
	}
}

// TestParseFoldsRuns: `go test -count 3` prints every benchmark three
// times, and parse folds each name into one row in first-seen order:
// the median of every column, ns/op's quartiles and the run count. A
// work counter that differs between runs is an error, and a single run
// keeps the fields that only a fold sets out of the JSON.
func TestParseFoldsRuns(t *testing.T) {
	out := `goos: linux
BenchmarkFleet/clients=256-2 	       1	400000000 ns/op	   1562500 ns/op/client	  63887 events/op	   7976753 hops/op	  3456.0 pkts/client	 5000000 B/op	  40000 allocs/op
BenchmarkFleet/clients=256-2 	       1	300000000 ns/op	   1171875 ns/op/client	  63887 events/op	   7976753 hops/op	  3456.0 pkts/client	 5000100 B/op	  40002 allocs/op
BenchmarkFleet/clients=256-2 	       1	350000000 ns/op	   1367188 ns/op/client	  63887 events/op	   7976753 hops/op	  3456.0 pkts/client	 4999900 B/op	  40001 allocs/op
BenchmarkLaneRetire-2 	20000000	        60.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkLaneRetire-2 	10000000	        90.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkLaneRetire-2 	30000000	        50.00 ns/op	       0 B/op	       0 allocs/op
PASS
`
	got, err := parse(strings.NewReader(out), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkFleet/clients=256", Iterations: 1, NsPerOp: 350000000, NsQ1: 325000000, NsQ3: 375000000, Runs: 3,
			BytesPerOp: 5000000, AllocsPerOp: 40001,
			Metrics: map[string]float64{"ns/op/client": 1367188, "events/op": 63887, "hops/op": 7976753, "pkts/client": 3456}},
		{Name: "BenchmarkLaneRetire", Iterations: 20000000, NsPerOp: 60, NsQ1: 55, NsQ3: 75, Runs: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got %+v\nwant %+v", got, want)
	}

	differ := strings.Replace(out, "7976753 hops/op", "7976754 hops/op", 1)
	if _, err := parse(strings.NewReader(differ), nil, 2); err == nil || !strings.Contains(err.Error(), "hops/op") {
		t.Fatalf("runs with different hops/op: err = %v, want one naming hops/op", err)
	}

	one, err := parse(strings.NewReader("BenchmarkLaneRetire \t1\t756.0 ns/op\t0 B/op\t0 allocs/op\n"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := json.Marshal(one); strings.Contains(string(data), "q1") || strings.Contains(string(data), "runs") {
		t.Fatalf("a single run wrote fold fields: %s", data)
	}
}

// TestRecordFailsWithoutWriting: record is the path both -stdin and a
// go test that vbench runs take. Runs whose work counters differ, or a
// go test that fails, make it fail and write no report; otherwise the
// report holds the folded rows.
func TestRecordFailsWithoutWriting(t *testing.T) {
	runs := "BenchmarkFleet/clients=256 \t1\t400 ns/op\t7976753 hops/op\n" +
		"BenchmarkFleet/clients=256 \t1\t300 ns/op\t7976753 hops/op\n"
	ok := func() error { return nil }
	for _, c := range []struct {
		name, out string
		wait      func() error
		err       string
	}{
		{"counters differ", strings.Replace(runs, "7976753", "7976754", 1), ok, "hops/op"},
		{"go test fails", runs, func() error { return errors.New("exit status 1") }, "go test failed"},
	} {
		path := filepath.Join(t.TempDir(), "b.json")
		if _, err := record(Report{}, strings.NewReader(c.out), nil, c.wait, path); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("%s: err = %v, want one naming %q", c.name, err, c.err)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: a report was written (stat: %v)", c.name, err)
		}
	}

	path := filepath.Join(t.TempDir(), "b.json")
	if n, err := record(Report{Command: "stdin"}, strings.NewReader(runs), nil, ok, path); err != nil || n != 1 {
		t.Fatalf("record = %d, %v; want 1 row", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := []Result{{Name: "BenchmarkFleet/clients=256", Iterations: 1, NsPerOp: 350, NsQ1: 325, NsQ3: 375, Runs: 2,
		Metrics: map[string]float64{"hops/op": 7976753}}}
	if rep.Command != "stdin" || !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("report = %+v, want command stdin and rows %+v", rep, want)
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
