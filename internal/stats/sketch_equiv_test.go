package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The equivalence suite pins Sketch's dense bin array against the
// bin store it replaced, preserved below as an executable reference.
// Both run the same seeded streams and merge trees; their encodings,
// summaries, bin counts and quantiles must be identical.
// This is the test that guarantees every fleet result, golden and
// fingerprint encoded before the change still means what it meant.

// mapSketch is the map-based bin store transcribed from the old
// Sketch: the same DDSketch geometry over a map[int]int64 whose keys
// are sorted on every Quantile and encode. It is deliberately a
// second, independent copy, not a call into the production helpers,
// so a regression in either breaks the comparison. One change: +Inf
// counts in the top bin, key(math.MaxFloat64), where the old
// int(math.Ceil(+Inf)) conversion was undefined.
type mapSketch struct {
	relErr  float64
	gamma   float64
	lnGamma float64
	counts  map[int]int64
	zeros   int64
	n       int64
	sum     float64
	min     float64
	max     float64
}

// newMapSketch takes a relErr already inside [minRelErr, 1); the
// reference has no clamps of its own.
func newMapSketch(relErr float64) *mapSketch {
	gamma := (1 + relErr) / (1 - relErr)
	return &mapSketch{
		relErr:  relErr,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		counts:  map[int]int64{},
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

func (m *mapSketch) key(x float64) int {
	if math.IsInf(x, 1) {
		x = math.MaxFloat64
	}
	return int(math.Ceil(math.Log(x) / m.lnGamma))
}

func (m *mapSketch) add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	m.n++
	m.sum += x
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
	if x < minTrackable {
		m.zeros++
		return
	}
	m.counts[m.key(x)]++
}

func (m *mapSketch) merge(o *mapSketch) {
	if o.n == 0 {
		return
	}
	for k, c := range o.counts {
		m.counts[k] += c
	}
	m.zeros += o.zeros
	m.n += o.n
	m.sum += o.sum
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
}

func (m *mapSketch) sortedKeys() []int {
	keys := make([]int, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (m *mapSketch) quantile(q float64) float64 {
	if m.n == 0 {
		return math.NaN()
	}
	q = max(0, min(q, 1))
	rank := max(int64(math.Ceil(q*float64(m.n))), 1)
	if rank <= m.zeros {
		return 0
	}
	cum := m.zeros
	for _, k := range m.sortedKeys() {
		cum += m.counts[k]
		if cum >= rank {
			est := 2 * math.Pow(m.gamma, float64(k)) / (m.gamma + 1)
			return max(m.min, min(est, m.max))
		}
	}
	return m.max
}

func (m *mapSketch) appendBinary(buf []byte) []byte {
	buf = appendF64(buf, m.relErr)
	buf = appendI64(buf, m.zeros)
	buf = appendI64(buf, m.n)
	buf = appendF64(buf, m.sum)
	buf = appendF64(buf, m.min)
	buf = appendF64(buf, m.max)
	keys := m.sortedKeys()
	buf = appendI64(buf, int64(len(keys)))
	for _, k := range keys {
		buf = appendI64(buf, int64(k))
		buf = appendI64(buf, m.counts[k])
	}
	return buf
}

var equivQuantiles = []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// sameSketch requires got to match the reference in every observable,
// to hold the dense array's own invariant (both ends occupied, used
// counting the nonzero entries), and to survive its own codec.
func sameSketch(t *testing.T, what string, got *Sketch, want *mapSketch) {
	t.Helper()
	enc := got.AppendBinary(nil)
	if ref := want.appendBinary(nil); !bytes.Equal(enc, ref) {
		t.Fatalf("%s: encodings differ (%d vs %d bytes)", what, len(enc), len(ref))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.N() != want.n || !same(got.Sum(), want.sum) || got.Bins() != len(want.counts) {
		t.Fatalf("%s: N/Sum/Bins = %d/%v/%d, want %d/%v/%d",
			what, got.N(), got.Sum(), got.Bins(), want.n, want.sum, len(want.counts))
	}
	if want.n > 0 && (!same(got.Min(), want.min) || !same(got.Max(), want.max)) {
		t.Fatalf("%s: Min/Max = %v/%v, want %v/%v", what, got.Min(), got.Max(), want.min, want.max)
	}
	for _, q := range equivQuantiles {
		if g, w := got.Quantile(q), want.quantile(q); !same(g, w) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, g, w)
		}
	}
	nonzero := 0
	for _, c := range got.bins {
		if c != 0 {
			nonzero++
		}
	}
	if nonzero != got.used || len(got.bins) > 0 && (got.bins[0] == 0 || got.bins[len(got.bins)-1] == 0) {
		t.Fatalf("%s: bin array of %d entries, %d nonzero, used %d, not spanning occupied ends",
			what, len(got.bins), nonzero, got.used)
	}
	d := NewDecoder(enc)
	back, err := DecodeSketch(d)
	if err != nil || d.Len() != 0 {
		t.Fatalf("%s: own encoding does not decode: %v, %d bytes left", what, err, d.Len())
	}
	if !bytes.Equal(back.AppendBinary(nil), enc) {
		t.Fatalf("%s: decoded sketch re-encodes differently", what)
	}
}

// equivStreams are the value streams both stores are driven with.
var equivStreams = []struct {
	name string
	gen  func(r *rand.Rand, prev float64) float64
}{
	{"lognormal", func(r *rand.Rand, _ float64) float64 { return math.Exp(8 * r.NormFloat64()) }},
	{"ties", func(r *rand.Rand, _ float64) float64 { return float64(r.Intn(5)) * 0.75 }},
	{"zeros-negatives-nan", func(r *rand.Rand, _ float64) float64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return -r.ExpFloat64()
		case 2:
			return math.NaN()
		case 3:
			return minTrackable * r.Float64()
		}
		return r.ExpFloat64()
	}},
	{"extremes", func(r *rand.Rand, _ float64) float64 {
		return []float64{
			minTrackable,
			math.Nextafter(minTrackable, 0),
			math.Nextafter(minTrackable, 1),
			math.SmallestNonzeroFloat64,
			math.MaxFloat64,
			math.Nextafter(math.MaxFloat64, 0),
			math.MaxFloat64 / 3,
			math.Inf(1),
			r.ExpFloat64(),
		}[r.Intn(9)]
	}},
	// Each value below the last, so the array keeps growing downward.
	{"descending", func(r *rand.Rand, prev float64) float64 {
		if !(prev >= minTrackable) || prev > 1e12 {
			return 1e12
		}
		return prev * (0.5 + 0.5*r.Float64())
	}},
}

func TestSketchDenseMatchesMapStore(t *testing.T) {
	for si, st := range equivStreams {
		for _, relErr := range []float64{DefaultSketchErr, 0.05, minRelErr} {
			t.Run(fmt.Sprintf("%s/%g", st.name, relErr), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(41 + si)))
				prev := 0.0
				next := func() float64 {
					prev = st.gen(r, prev)
					return prev
				}

				// One stream.
				got, want := NewSketch(relErr), newMapSketch(relErr)
				sameSketch(t, "empty", got, want)
				for range 3000 {
					x := next()
					got.Add(x)
					want.add(x)
				}
				sameSketch(t, "stream", got, want)

				// Leaves of a merge tree.
				const leaves = 8
				gs := make([]*Sketch, leaves)
				ws := make([]*mapSketch, leaves)
				for i := range gs {
					gs[i], ws[i] = NewSketch(relErr), newMapSketch(relErr)
				}
				for range 4000 {
					i, x := r.Intn(leaves), next()
					gs[i].Add(x)
					ws[i].add(x)
				}

				// The fleet's fold: every leaf into a fresh accumulator.
				acc, wacc := NewSketch(relErr), newMapSketch(relErr)
				for i := range gs {
					acc.Merge(gs[i])
					wacc.merge(ws[i])
				}
				sameSketch(t, "fold", acc, wacc)

				// A random merge tree: fold random pairs until one remains.
				for len(gs) > 1 {
					a, b := r.Intn(len(gs)), r.Intn(len(gs)-1)
					if b >= a {
						b++
					}
					gs[a].Merge(gs[b])
					ws[a].merge(ws[b])
					sameSketch(t, "tree", gs[a], ws[a])
					gs = slices.Delete(gs, b, b+1)
					ws = slices.Delete(ws, b, b+1)
				}
			})
		}
	}
}
