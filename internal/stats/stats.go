// Package stats provides the descriptive statistics the paper's
// figures are built from: empirical CDFs, quantiles, Pearson
// correlation, histograms with modal bins, and compact summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Upper-bound binary search: the first index with sorted[i] > x.
	// (A linear scan past ties is O(n) per lookup on heavily tied
	// samples such as block sizes.)
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile, q in [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) || frac == 0 {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Points samples the CDF at n evenly spaced sample indices, returning
// (x, P(X<=x)) pairs suitable for plotting a figure series.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		x := c.sorted[idx]
		out = append(out, [2]float64{x, float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

// Render prints a textual CDF curve with the given x-axis label, used
// by the figure benches to emit the paper's series.
func (c *CDF) Render(label string, points int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# CDF of %s (n=%d)\n", label, c.N())
	for _, p := range c.Points(points) {
		fmt.Fprintf(&b, "%12.4f  %6.4f\n", p[0], p[1])
	}
	return b.String()
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 { return NewCDF(xs).Median() }

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns NaN when either series is constant or lengths mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Histogram bins samples into fixed-width bins.
type Histogram struct {
	BinWidth float64
	Counts   map[int]int
	total    int
}

// NewHistogram bins the samples.
func NewHistogram(samples []float64, binWidth float64) *Histogram {
	h := &Histogram{BinWidth: binWidth, Counts: map[int]int{}}
	for _, s := range samples {
		h.Counts[int(math.Floor(s/binWidth))]++
		h.total++
	}
	return h
}

// Mode returns the center of the most populated bin and its share of
// all samples.
func (h *Histogram) Mode() (center float64, share float64) {
	best, bestN := 0, -1
	//vlint:unordered argmax under the total order (count desc, bin asc): every visit order yields the same winner
	for bin, n := range h.Counts {
		if n > bestN || (n == bestN && bin < best) {
			best, bestN = bin, n
		}
	}
	if bestN <= 0 {
		return math.NaN(), 0
	}
	return (float64(best) + 0.5) * h.BinWidth, float64(bestN) / float64(h.total)
}
