// Command vbench records the benchmark suite in machine-readable form
// so the performance trajectory is comparable across PRs: it runs
// `go test -bench` with allocation stats and writes a BENCH_<n>.json
// containing ns/op, B/op and allocs/op per benchmark. The rows of a
// benchmark that ran several times (`go test -count N`, read with
// -stdin) fold into one: the median of N runs, with the quartiles of
// ns/op.
//
// Usage:
//
//	vbench -n 1                       # writes BENCH_1.json from the full suite
//	vbench -n 2 -bench 'SingleSession' -benchtime 3x
//	go test -bench=. -benchmem | vbench -n 1 -stdin   # parse an existing run
//	go test -run '^$' -bench LaneRetire -count 10 ./internal/sim | vbench -stdin -out lanes.json
//	vbench -compare BENCH_6.json BENCH_7.json         # benchstat-style delta table
//	vbench -compare -only 'Fleet|SingleSession' -fail-allocs 25 old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement. A row folded from several
// runs (`go test -count N`) holds the median of each column, the
// quartiles of ns/op and the run count; a single run leaves those
// three fields zero, and so out of the JSON.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsQ1        float64 `json:"ns_per_op_q1,omitempty"`
	NsQ3        float64 `json:"ns_per_op_q3,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric column verbatim
	// (unit → value): the fleet benchmarks report per-client figures
	// (`B/op/client`, `ns/op/client`, `pkts/client`) that the standard
	// three columns cannot carry.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Command     string `json:"command"`
	// Notes carries free-form context that the benchmark columns
	// cannot (e.g. the wall clock of a fleet run too large for
	// `go test -bench`).
	Notes       string   `json:"notes,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
	Benchmarks  []Result `json:"benchmarks"`
}

// benchHead matches `BenchmarkName-8  3  41330152 ns/op  17964480 B/op  332352 allocs/op`
// up to the name and iteration count (the memory columns are
// optional); the measurement columns after it are `<value> <unit>`
// pairs parsed by field walk, so custom b.ReportMetric units (e.g.
// `pkts/client`) pass through without confusing the ns/op, B/op and
// allocs/op extraction.
var benchHead = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)((?:\s+[\d.]+ \S+)+)\s*$`)

// parse reads `go test -bench` output run at GOMAXPROCS procs. go test
// appends "-<procs>" to every name when procs is not 1, and only that
// suffix is stripped: a benchmark whose own name ends in "-<digits>"
// keeps it. The rows of a name that ran several times (`go test
// -count N`) fold into one (see fold).
func parse(r io.Reader, echo io.Writer, procs int) ([]Result, error) {
	suffix := ""
	if procs != 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	out := []Result{} // never nil, so the JSON field is [] not null
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		m := benchHead.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Name: strings.TrimSuffix(m[1], suffix)}
		res.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		cols := strings.Fields(m[3])
		for i := 0; i+1 < len(cols); i += 2 {
			switch cols[i+1] {
			case "ns/op":
				res.NsPerOp, _ = strconv.ParseFloat(cols[i], 64)
			case "B/op":
				res.BytesPerOp, _ = strconv.ParseInt(cols[i], 10, 64)
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseInt(cols[i], 10, 64)
			default:
				v, err := strconv.ParseFloat(cols[i], 64)
				if err != nil {
					continue
				}
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[cols[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return fold(out)
}

// fold merges the rows that share a name into one, in the order the
// names first appear: the median of ns/op, B/op, allocs/op, the
// iteration count and every custom metric, the quartiles of ns/op, and
// the number of runs. The exactCounters count simulated work, so they
// must repeat exactly across the runs; fold fails when one differs. A
// name that ran once keeps its row as it was.
func fold(rows []Result) ([]Result, error) {
	out := []Result{} // never nil, so the JSON field is [] not null
	for i, r := range rows {
		if slices.ContainsFunc(rows[:i], func(p Result) bool { return p.Name == r.Name }) {
			continue
		}
		var runs []Result
		for _, q := range rows[i:] {
			if q.Name == r.Name {
				runs = append(runs, q)
			}
		}
		if len(runs) == 1 {
			out = append(out, r)
			continue
		}
		col := func(v func(Result) float64) []float64 {
			vs := make([]float64, len(runs))
			for k, q := range runs {
				vs[k] = v(q)
			}
			slices.Sort(vs)
			return vs
		}
		median := func(v func(Result) int64) int64 {
			return int64(math.Round(quantile(col(func(q Result) float64 { return float64(v(q)) }), 0.5)))
		}
		ns := col(func(q Result) float64 { return q.NsPerOp })
		f := Result{Name: r.Name, NsPerOp: quantile(ns, 0.5), NsQ1: quantile(ns, 0.25), NsQ3: quantile(ns, 0.75), Runs: len(runs)}
		f.Iterations = median(func(q Result) int64 { return q.Iterations })
		f.BytesPerOp = median(func(q Result) int64 { return q.BytesPerOp })
		f.AllocsPerOp = median(func(q Result) int64 { return q.AllocsPerOp })
		for _, unit := range slices.Sorted(maps.Keys(r.Metrics)) {
			vs := col(func(q Result) float64 { return q.Metrics[unit] })
			if slices.Contains(exactCounters, unit) && vs[0] != vs[len(vs)-1] {
				return nil, fmt.Errorf("%s: %s differs across its %d runs: %v", r.Name, unit, len(runs), vs)
			}
			if f.Metrics == nil {
				f.Metrics = map[string]float64{}
			}
			f.Metrics[unit] = quantile(vs, 0.5)
		}
		out = append(out, f)
	}
	return out, nil
}

// quantile returns the p-quantile of the sorted values vs, interpolated
// linearly between the two nearest ranks.
func quantile(vs []float64, p float64) float64 {
	h := p * float64(len(vs)-1)
	lo := int(h)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (h-float64(lo))*(vs[lo+1]-vs[lo])
}

// reportStamp resolves the generated_at field: the wall clock by
// default (vbench is a cmd/, outside the simulation's virtual-time
// contract), or a caller-pinned RFC3339 instant so two CI runs of the
// same commit produce byte-identical BENCH_<n>.json files.
func reportStamp(stamp string) (string, error) {
	if stamp == "" {
		return time.Now().UTC().Format(time.RFC3339), nil
	}
	if _, err := time.Parse(time.RFC3339, stamp); err != nil {
		return "", fmt.Errorf("invalid -stamp %q: %w", stamp, err)
	}
	return stamp, nil
}

func main() {
	n := flag.Int("n", 1, "PR number; output file is BENCH_<n>.json")
	bench := flag.String("bench", ".", "benchmark regex passed to go test")
	benchtime := flag.String("benchtime", "1x", "benchtime passed to go test")
	pkg := flag.String("pkg", ".", "package to benchmark")
	stdin := flag.Bool("stdin", false, "parse `go test -bench` output from stdin instead of running it; names lose only the -<GOMAXPROCS> suffix of this process's GOMAXPROCS, and the runs of one name (go test -count N) fold into one row; exit 1 if their events/op, hops/op or pkts/client differ")
	out := flag.String("out", "", "output path (default BENCH_<n>.json)")
	stamp := flag.String("stamp", "", "override generated_at (RFC3339) so reports diff reproducibly in CI")
	note := flag.String("note", "", "free-form notes field recorded in the report")
	compare := flag.Bool("compare", false, "compare two BENCH_<n>.json files (positional: old.json new.json) and print a delta table; exit 1 if a compared row's events/op, hops/op or pkts/client differs")
	only := flag.String("only", "", "with -compare: restrict to benchmarks matching this regex; exit 1 unless it matches at least one and each is in both reports")
	failAllocs := flag.Float64("fail-allocs", 0, "with -compare: exit 1 if any benchmark's allocs/op regresses by more than this percent")
	failBytes := flag.Float64("fail-bytes", 0, "with -compare: exit 1 if any benchmark's B/op (and so its per-client column) regresses by more than this percent")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *only, *failAllocs, *failBytes, os.Stdout))
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%d.json", *n)
	}
	generatedAt, err := reportStamp(*stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
	rep := Report{
		GeneratedAt: generatedAt,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Notes:       *note,
	}

	var in io.Reader = os.Stdin
	var echo io.Writer
	var wait func() error
	if *stdin {
		rep.Command = "stdin"
	} else {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-benchmem", *pkg}
		rep.Command = "go " + strings.Join(args, " ")
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vbench:", err)
			os.Exit(1)
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "vbench:", err)
			os.Exit(1)
		}
		in, echo, wait = pipe, os.Stdout, cmd.Wait
	}
	rows, err := record(rep, in, echo, wait, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "vbench: wrote %s (%d benchmarks)\n", path, rows)
}

// record reads `go test -bench` output from r, echoing it to echo when
// that is not nil, and writes rep with the parsed rows to path. wait,
// when not nil, is the go test process's Wait, called once r is read.
// It writes nothing, and fails, when go test fails or parse does (a
// work counter that differs across the runs of a name); it returns
// the number of rows written.
func record(rep Report, r io.Reader, echo io.Writer, wait func() error, path string) (int, error) {
	start := time.Now()
	rows, err := parse(r, echo, runtime.GOMAXPROCS(0))
	if wait != nil {
		if err := wait(); err != nil {
			return 0, fmt.Errorf("go test failed: %w", err)
		}
	}
	if err != nil {
		return 0, err
	}
	rep.Benchmarks = rows
	rep.WallSeconds = time.Since(start).Seconds()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 0, err
	}
	return len(rows), os.WriteFile(path, append(data, '\n'), 0o644)
}
