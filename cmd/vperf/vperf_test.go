package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from seed-1 runs at both scales")

type benchmarkDoc struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the command's own
// metric and workload lists identical, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := readBenchmarkDoc(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: command has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: command has %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: command %s, BENCHMARK.json %s", i, w.name, doc.Workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the outputs pass, that every metric of BENCHMARK.json is
// printed by name with its unit, and that the last line is the result
// object with exactly the metrics of the mode.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkDoc(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, _, err := runWorkload(runConfig{
				workload: w, seed: 1, minReps: 1, traced: traced, size: tiny,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, r); err != nil {
				t.Fatal(err)
			}
			text := buf.String()
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("%s traced=%v failed:\n%s", w.name, traced, text)
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want, printed := doc.EndToEnd, doc.EndToEnd
			if traced {
				want, printed = doc.PerLayer, append(doc.PerLayer, doc.EndToEnd...)
			}
			for _, m := range printed {
				re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
				if !re.MatchString(text) {
					t.Errorf("%s traced=%v: %s [%s] not printed", w.name, traced, m.Name, m.Unit)
				}
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %+v", w.name, traced, line)
			}
			for _, m := range want {
				if got := line.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s traced=%v: result line has %s in [%s], want [%s]", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func fingerprint(t *testing.T, w workload, sz scale, workers int) string {
	t.Helper()
	out, err := w.new(1, sz).run(runner.Options{Workers: workers}, false, newSpanLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := out.check(false)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestFingerprints checks that the seed-1 output does not depend on the
// worker count and matches the pinned hash.
func TestFingerprints(t *testing.T) {
	if *update {
		pinned := map[string]map[string]string{}
		for _, sz := range []scale{full, tiny} {
			pinned[sz.String()] = map[string]string{}
			for _, w := range workloads {
				pinned[sz.String()][w.name] = fingerprint(t, w, sz, 2)
			}
		}
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/fingerprints.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		pinnedFingerprints = pinned
	}
	for _, w := range workloads {
		one, two := fingerprint(t, w, tiny, 1), fingerprint(t, w, tiny, 2)
		if one != two {
			t.Errorf("%s: fingerprint %s at 1 worker, %s at 2", w.name, one, two)
		}
		if want := pinnedFingerprints["tiny"][w.name]; two != want {
			t.Errorf("%s: fingerprint %s, pinned %s", w.name, two, want)
		}
		if pinnedFingerprints["full"][w.name] == "" {
			t.Errorf("%s: no pinned full-scale fingerprint", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(xs, n=4) and statistics.median(xs).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
