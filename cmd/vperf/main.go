// Command vperf is the repository's end-to-end benchmark. It runs four
// seeded workloads through the public entry points of runner, session
// and scenario, checks every output, and prints each metric by name
// with its unit. README.md has the metric tables, why each workload
// exists and how layers are attributed.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/vperf/run.sh --workload fleet-onoff --seed 1 --seconds 15 --trace 0
//	bash cmd/vperf/run.sh -seed 1 -out a.json        # a set: 5 rounds of every workload, a child process each
//	bash cmd/vperf/run.sh -agree a.json b.json
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end metrics, or with --trace 1 the per-layer ones. The command
// exits 1 when any rep failed its output checks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// benchWorkers is a run's runner.Options.Workers and GOMAXPROCS. The
// reference calibration is the kernel's time at this count.
const benchWorkers = 2

// setRounds is how many times a set runs each workload. The rounds are
// interleaved, so that each workload's medians span the whole set and
// not one stretch of the host's drift.
const setRounds = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"pkts_per_s", "pkt/s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_s", "s"})
	}
	return append(out,
		metricDef{"profile.samples", "count"}, metricDef{"profile.cover_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"work.pkts", "count"}, metricDef{"netem.drops", "count"}, metricDef{"tcp.retrans", "count"},
		metricDef{"scenario.cells", "count"}, metricDef{"session.count", "count"},
		metricDef{"codec.stream_bytes", "bytes"},
		metricDef{"work.cpu_ns_per_pkt", "ns/pkt"}, metricDef{"runner.idle_frac", "ratio"},
		metricDef{"codec.merge_s", "s"}, metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"session.p50_ms", "ms"}, metricDef{"session.p99_ms", "ms"},
		metricDef{"host.wall_s", "s"}, metricDef{"host.setup_s", "s"}, metricDef{"host.cal_ms", "ms"},
	)
}()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vperf:", err)
	os.Exit(2)
}

func main() {
	name := flag.String("workload", "", "run one workload (fleet-onoff, sweep-table1, fleet-strain, fleet-crowd); empty runs a set of them, each run in its own child process")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "seconds of timed reps per workload; a set splits them over its rounds")
	trace := flag.Int("trace", 0, "1 = split the timed reps into an untraced and a CPU-profiled half and report per-layer metrics")
	out := flag.String("out", "", "write the JSON report to this file")
	spansOut := flag.String("spans-out", "", "write the harness spans as JSONL to this file (with -workload)")
	agree := flag.Bool("agree", false, "compare two reports: vperf -agree a.json b.json")
	benchJSON := flag.String("benchmark", "BENCHMARK.json", "file holding the end-to-end bounds -agree applies")
	flag.Parse()

	switch {
	case *agree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree wants two report files"))
		}
		ok, err := agreeFiles(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	case *seconds < 1:
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *name == "" {
		if !runAll(os.Stdout, *seed, *seconds, *trace, *out) {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := runConfig{
		workload: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		minReps: 3, setupFor: time.Second, traced: *trace == 1, size: full,
	}
	r, spans, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if *spansOut != "" {
		if err := spans.writeJSONL(*spansOut); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeReport(*out, &report{Workloads: []*workloadReport{r}}); err != nil {
			fatal(err)
		}
	}
	if err := emit(os.Stdout, r); err != nil {
		fatal(err)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

// allMetrics is every metric, in the order they are printed.
var allMetrics = append(append([]metricDef(nil), endToEnd...), perLayer...)

// emit prints every metric of a run, then the one-line JSON result.
func emit(w io.Writer, r *workloadReport) error {
	names := endToEnd
	if r.Traced {
		names = perLayer
	}
	r.print(w, allMetrics)
	line, err := r.resultLine(names)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs a set: setRounds rounds, each running every workload in
// turn with its share of seconds, in a child process of this binary so
// that peak RSS and CPU time are the workload's alone. Each workload's
// rounds are then combined. It reports whether every rep of every
// workload passed its checks.
func runAll(w io.Writer, seed int64, seconds, trace int, out string) bool {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp("", "vperf-set-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	perRound := max(1, seconds/setRounds)
	rounds := map[string][]*workloadReport{}
	ok := true
	for round := 1; round <= setRounds; round++ {
		for _, wl := range workloads {
			part := filepath.Join(dir, fmt.Sprintf("%s-%d.json", wl.name, round))
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(perRound), "-trace", strconv.Itoa(trace), "-out", part)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			r, err := readReport(part)
			if err != nil {
				fmt.Fprintf(w, "%s round %d: %v\n%s", wl.name, round, runErr, stdout.Bytes())
				ok = false
				continue
			}
			ok = ok && runErr == nil
			rounds[wl.name] = append(rounds[wl.name], r.Workloads[0])
			fmt.Fprintf(w, "%s round %d: wall_s %.4g s\n", wl.name, round, r.Workloads[0].Metrics["wall_s"].Median)
		}
	}
	fmt.Fprintln(w)
	set := &report{}
	for _, wl := range workloads {
		if len(rounds[wl.name]) == 0 {
			continue
		}
		r := combine(rounds[wl.name])
		ok = ok && r.Correct
		set.Workloads = append(set.Workloads, r)
		r.print(w, allMetrics)
		fmt.Fprintln(w)
	}
	if out != "" {
		if err := writeReport(out, set); err != nil {
			fatal(err)
		}
	}
	return ok
}

// readBounds reads the end-to-end metrics and their bounds from
// BENCHMARK.json.
func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = bound{rel: m.Bound, higherBetter: m.Better == "higher"}
	}
	return out, nil
}
