package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is one metric of one run: the median of its samples and the
// quartiles as Python's statistics.quantiles(n=4) computes them. A
// metric measured once has Q1 = Q3 = Median.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadReport is one run of one workload.
type workloadReport struct {
	Name         string   `json:"name"`
	Seed         int64    `json:"seed"`
	Scale        string   `json:"scale"`
	Traced       bool     `json:"traced"`
	Workers      int      `json:"workers"`
	Correct      bool     `json:"correct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Problems     []string `json:"problems,omitempty"`
	Fingerprint  string   `json:"fingerprint"`
	SessionSpans int      `json:"session_spans"`
	Unresolved   []string `json:"unresolved,omitempty"`
	// Rounds is how many runs a set's report combines; 0 for one run.
	Rounds  int                `json:"rounds,omitempty"`
	Metrics map[string]summary `json:"metrics"`
}

// report is a set: one run of each workload, as written by -out and
// read by -agree.
type report struct {
	Workloads []*workloadReport `json:"workloads"`
}

func (r *workloadReport) add(name, unit string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.Metrics[name] = summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// combine makes one report of a workload's rounds in a set. A metric's
// median and quartiles are those of the rounds' medians, so the set's
// spread is the spread between runs. Every round must give the same
// output fingerprint.
func combine(rounds []*workloadReport) *workloadReport {
	first := rounds[0]
	r := &workloadReport{
		Name: first.Name, Seed: first.Seed, Scale: first.Scale, Traced: first.Traced, Workers: first.Workers,
		Correct: true, Fingerprint: first.Fingerprint, Rounds: len(rounds), Metrics: map[string]summary{},
	}
	medians := map[string][]float64{}
	for i, rd := range rounds {
		r.Correct = r.Correct && rd.Correct
		r.Attempted += rd.Attempted
		r.Failed += rd.Failed
		r.SessionSpans += rd.SessionSpans
		for _, p := range rd.Problems {
			r.Problems = append(r.Problems, fmt.Sprintf("round %d: %s", i+1, p))
		}
		for _, u := range rd.Unresolved {
			r.Unresolved = append(r.Unresolved, fmt.Sprintf("round %d: %s", i+1, u))
		}
		if rd.Fingerprint != first.Fingerprint {
			r.Correct = false
			r.Problems = append(r.Problems, fmt.Sprintf("round %d: fingerprint %s, round 1 %s", i+1, rd.Fingerprint, first.Fingerprint))
		}
		for name, s := range rd.Metrics {
			medians[name] = append(medians[name], s.Median)
		}
	}
	for name, xs := range medians {
		r.add(name, first.Metrics[name].Unit, xs)
	}
	return r
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, the median and the third
// quartile with the "exclusive" method of Python's statistics module.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// percentile returns the p-quantile of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// print writes every metric of r by name with its unit, then the
// problems and unresolved layers.
func (r *workloadReport) print(w io.Writer, names []metricDef) {
	runs := ""
	if r.Rounds > 0 {
		runs = fmt.Sprintf(", medians over %d rounds", r.Rounds)
	}
	fmt.Fprintf(w, "%s seed %d (%s scale, %d workers%s): %d reps, %d failed, fingerprint %s\n",
		r.Name, r.Seed, r.Scale, r.Workers, runs, r.Attempted, r.Failed, r.Fingerprint)
	for _, m := range names {
		s, ok := r.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-7s q1 %.6g  q3 %.6g  n=%d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	for _, u := range r.Unresolved {
		fmt.Fprintf(w, "  unresolved: %s\n", u)
	}
}

// resultLine is the one-line result the benchmark prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadReport) resultLine(names []metricDef) ([]byte, error) {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueInUnit{}}
	for _, m := range names {
		s, ok := r.Metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		line.Metrics[m.name] = valueInUnit{s.Median, s.Unit}
	}
	return json.Marshal(line)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinnedFingerprints maps scale, then workload, to the SHA-256 of the
// seed-1 output. A rep whose output hashes differently fails.
//
//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

var pinnedFingerprints = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &m); err != nil {
		panic("vperf: testdata/fingerprints.json: " + err.Error())
	}
	return m
}()
