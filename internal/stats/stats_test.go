package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if m := c.Median(); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("median = %v", m)
	}
}

func TestCDFWithDuplicates(t *testing.T) {
	c := NewCDF([]float64{64, 64, 64, 64, 128, 256})
	if got := c.At(64); math.Abs(got-4.0/6) > 1e-12 {
		t.Fatalf("At(64) = %v, want 4/6", got)
	}
	if got := c.At(63.9); got != 0 {
		t.Fatalf("At(63.9) = %v, want 0", got)
	}
}

// TestCDFAtHeavilyTied is the regression test for the upper-bound
// binary search: block-size samples are heavily tied (thousands of
// identical 64 kB blocks), and At must stay correct — and sub-linear —
// on such inputs. Correctness is checked against a naive O(n) count.
func TestCDFAtHeavilyTied(t *testing.T) {
	const n = 50000
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Three massive tie groups plus a sprinkle of distinct values.
		switch i % 10 {
		case 9:
			xs = append(xs, float64(i))
		case 8:
			xs = append(xs, 256<<10)
		default:
			xs = append(xs, 64<<10)
		}
	}
	c := NewCDF(xs)
	naive := func(x float64) float64 {
		k := 0
		for _, v := range xs {
			if v <= x {
				k++
			}
		}
		return float64(k) / float64(len(xs))
	}
	for _, x := range []float64{0, 64<<10 - 1, 64 << 10, 64<<10 + 1, 256 << 10, 1e9, -5} {
		if got, want := c.At(x), naive(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func BenchmarkCDFAtTied(b *testing.B) {
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = 64 << 10 // fully tied: the old linear scan's worst case
	}
	c := NewCDF(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(64 << 10)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if q := c.Quantile(0.5); math.Abs(q-5) > 1e-12 {
		t.Fatalf("interpolated median = %v", q)
	}
	if q := c.Quantile(0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := c.Quantile(1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty CDF quantile must be NaN")
	}
}

func TestCDFPointsAndRender(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0][0] != 0 || pts[10][0] != 99 {
		t.Fatalf("endpoints = %v, %v", pts[0], pts[10])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][1] < pts[i-1][1] {
			t.Fatal("CDF points must be nondecreasing")
		}
	}
	r := c.Render("test metric", 5)
	if !strings.Contains(r, "CDF of test metric") || len(strings.Split(r, "\n")) < 5 {
		t.Fatalf("render output malformed:\n%s", r)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance = %v", v)
	}
	if s := Std(xs); s != 2 {
		t.Fatalf("std = %v", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty stats must be NaN")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive corr = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative corr = %v", r)
	}
	if r := Pearson(x, []float64{3, 3, 3, 3, 3}); !math.IsNaN(r) {
		t.Fatalf("constant series corr = %v, want NaN", r)
	}
	if r := Pearson(x, []float64{1}); !math.IsNaN(r) {
		t.Fatal("length mismatch must be NaN")
	}
	// Uncorrelated-ish: alternating pattern orthogonal to the trend.
	u := []float64{1, -1, 1, -1, 1}
	if r := Pearson(x, u); math.Abs(r) > 0.5 {
		t.Fatalf("weak corr expected, got %v", r)
	}
}

func TestHistogramMode(t *testing.T) {
	// Samples clustered at ~64 with stragglers: the paper's Figure 4
	// block-size shape.
	samples := []float64{64, 64.2, 64.5, 65, 65.5, 128, 256, 30}
	h := NewHistogram(samples, 8)
	center, share := h.Mode()
	if center < 56 || center > 72 {
		t.Fatalf("mode center = %v, want ~64", center)
	}
	if share < 0.5 {
		t.Fatalf("mode share = %v, want >= 0.5", share)
	}
	empty := NewHistogram(nil, 8)
	if c, s := empty.Mode(); !math.IsNaN(c) || s != 0 {
		t.Fatal("empty histogram mode must be NaN/0")
	}
}

// Property: CDF At is a valid distribution function — monotone, 0
// before min, 1 at max.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := c.At(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is an approximate inverse of At.
func TestPropertyQuantileInverse(t *testing.T) {
	f := func(raw []float64, qraw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		q := float64(qraw) / 255
		c := NewCDF(xs)
		x := c.Quantile(q)
		// Interpolated quantiles sit between order statistics, so At
		// can undershoot q by at most one sample's worth of mass.
		return c.At(x) >= q-1.0/float64(len(xs))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
