package main

import (
	"bytes"
	"strings"
	"testing"
)

func cannedSet(name string, failed int, ms map[string]summary) *report {
	return &report{Workloads: []*workloadReport{{Name: name, Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: ms}}}
}

// TestCombine checks that a set's report takes each metric's median and
// quartiles over the rounds' medians, sums the reps, and fails when the
// rounds' fingerprints differ.
func TestCombine(t *testing.T) {
	round := func(wall float64, fp string) *workloadReport {
		return &workloadReport{Name: "w", Correct: true, Attempted: 4, Fingerprint: fp,
			Metrics: map[string]summary{"wall_s": {Unit: "s", Median: wall, Q1: wall - 1, Q3: wall + 1}}}
	}
	r := combine([]*workloadReport{round(3, "h"), round(1, "h"), round(2, "h")})
	if got := r.Metrics["wall_s"]; got != (summary{Unit: "s", Median: 2, Q1: 1, Q3: 3, N: 3}) {
		t.Errorf("wall_s = %+v", got)
	}
	if !r.Correct || r.Attempted != 12 || r.Rounds != 3 {
		t.Errorf("combined %+v", r)
	}
	r = combine([]*workloadReport{round(1, "h"), round(1, "g")})
	if r.Correct || len(r.Problems) != 1 || !strings.Contains(r.Problems[0], "round 2: fingerprint g") {
		t.Errorf("differing fingerprints: correct %v, problems %q", r.Correct, r.Problems)
	}
}

func TestAgree(t *testing.T) {
	bounds := map[string]bound{
		"wall_s":     {rel: 0.10},
		"pkts_per_s": {rel: 0.10, higherBetter: true},
	}
	base := map[string]summary{
		"wall_s":     {Median: 1.00, Q1: 0.99, Q3: 1.01},
		"pkts_per_s": {Median: 1e6, Q1: 0.99e6, Q3: 1.01e6},
	}
	with := func(name string, s summary) map[string]summary {
		out := map[string]summary{}
		for k, v := range base {
			out[k] = v
		}
		out[name] = s
		return out
	}
	for _, c := range []struct {
		name    string
		b       *report
		ok      bool
		verdict string
	}{
		{"same", cannedSet("w", 0, base), true, "agree"},
		{"within bound", cannedSet("w", 0, with("wall_s", summary{Median: 1.08, Q1: 1.07, Q3: 1.09})), true, "agree"},
		{"slower", cannedSet("w", 0, with("wall_s", summary{Median: 1.20, Q1: 1.19, Q3: 1.21})), false, "DISAGREE: B worse"},
		{"fewer packets per second", cannedSet("w", 0, with("pkts_per_s", summary{Median: 0.8e6, Q1: 0.79e6, Q3: 0.81e6})), false, "DISAGREE: B worse"},
		{"faster", cannedSet("w", 0, with("wall_s", summary{Median: 0.80, Q1: 0.79, Q3: 0.81})), false, "DISAGREE: B better"},
		{"wide spread", cannedSet("w", 0, with("wall_s", summary{Median: 1.20, Q1: 1.00, Q3: 1.40})), true, "unresolved"},
		{"failed reps", cannedSet("w", 1, base), false, "failed 1 of 10"},
		{"other workload", cannedSet("v", 0, base), false, "missing from set B"},
		{"missing metric", cannedSet("w", 0, map[string]summary{"wall_s": base["wall_s"]}), false, "missing from a set"},
	} {
		var out bytes.Buffer
		if ok := agree(&out, bounds, cannedSet("w", 0, base), c.b); ok != c.ok {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.verdict, out.String())
		}
	}
}
