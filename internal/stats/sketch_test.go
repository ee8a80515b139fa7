package stats

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactRank returns the sample holding rank ceil(q*n) of the sorted
// slice — the same rank convention Sketch.Quantile promises to
// approximate.
func exactRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchRelativeErrorBound pins the sketch's accuracy guarantee
// against the exact buffered computation across several distributions:
// every quantile estimate must sit within RelErr (relatively) of the
// exact sample at the same rank.
func TestSketchRelativeErrorBound(t *testing.T) {
	const relErr = 0.01
	distros := map[string]func(r *rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return r.Float64() * 100 },
		"exp":       func(r *rand.Rand) float64 { return r.ExpFloat64() * 5 },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64() * 2) },
		"heavytied": func(r *rand.Rand) float64 { return float64(r.Intn(4)) * 1.5 },
		"withzeros": func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return 0
			}
			return r.Float64() * 10
		},
	}
	for name, gen := range distros {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			s := NewSketch(relErr)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := gen(r)
				s.Add(x)
				samples = append(samples, x)
			}
			sort.Float64s(samples)
			for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				got := s.Quantile(q)
				want := exactRank(samples, q)
				if want == 0 {
					if got != 0 {
						t.Fatalf("q=%.2f: exact 0, sketch %v", q, got)
					}
					continue
				}
				if rel := math.Abs(got-want) / want; rel > relErr+1e-12 {
					t.Fatalf("q=%.2f: exact %v, sketch %v, relative error %.4f > %.4f",
						q, want, got, rel, relErr)
				}
			}
			if s.N() != 20000 {
				t.Fatalf("N = %d, want 20000", s.N())
			}
			if got, want := s.Min(), samples[0]; got != want {
				t.Fatalf("Min = %v, want %v", got, want)
			}
			if got, want := s.Max(), samples[len(samples)-1]; got != want {
				t.Fatalf("Max = %v, want %v", got, want)
			}
			if got, want := s.Mean(), Mean(samples); math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("Mean = %v, want %v", got, want)
			}
		})
	}
}

// TestSketchMergeEqualsSingleStream checks the merge is exact: sharded
// insertion followed by merges yields the identical sketch state as
// one stream, so fleet statistics cannot depend on how clients were
// split across shards.
func TestSketchMergeEqualsSingleStream(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	whole := NewSketch(0.02)
	shards := []*Sketch{NewSketch(0.02), NewSketch(0.02), NewSketch(0.02)}
	for i := 0; i < 9999; i++ {
		x := r.ExpFloat64() * 42
		whole.Add(x)
		shards[i%3].Add(x)
	}
	merged := NewSketch(0.02)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	if merged.N() != whole.N() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary differs: %v/%v/%v vs %v/%v/%v",
			merged.N(), merged.Min(), merged.Max(),
			whole.N(), whole.Min(), whole.Max())
	}
	// The sum is exact per shard; only float addition order differs
	// between the sharded and single-stream accumulations.
	if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*whole.Sum() {
		t.Fatalf("merged sum %v != single-stream sum %v", merged.Sum(), whole.Sum())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
		if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
			t.Fatalf("q=%v: merged %v != single-stream %v", q, a, b)
		}
	}
}

// TestSketchMemoryLogarithmic asserts the footprint grows with the
// value range, not the sample count.
func TestSketchMemoryLogarithmic(t *testing.T) {
	s := NewSketch(0.01)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		s.Add(1 + r.Float64()*999) // 3 decades
	}
	// 0.01 relative error → gamma ≈ 1.0202 → ~345 bins per decade of
	// range; 1..1000 must stay well under 400.
	if s.Bins() > 400 {
		t.Fatalf("sketch used %d bins for 1e6 samples in [1,1000]; not O(log range)", s.Bins())
	}
}

func TestSketchEmptyAndEdge(t *testing.T) {
	s := NewSketch(0)
	if s.RelErr != DefaultSketchErr {
		t.Fatalf("default RelErr = %v", s.RelErr)
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sketch must return NaN")
	}
	s.Add(-5) // clamps to zero
	s.Add(0)
	if s.Quantile(1) != 0 || s.N() != 2 {
		t.Fatalf("zero-only sketch: q1=%v n=%d", s.Quantile(1), s.N())
	}
	s.Add(10)
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("max clamp: q1 = %v, want 10", got)
	}
	for in, want := range map[float64]float64{
		math.NaN(): DefaultSketchErr, -1: DefaultSketchErr, 1e-6: minRelErr, 1: 0.99, 0.5: 0.5,
	} {
		if got := NewSketch(in).RelErr; got != want {
			t.Fatalf("NewSketch(%v).RelErr = %v, want %v", in, got, want)
		}
	}
}

// TestSketchInfinityInTopBin pins where +Inf goes: the top bin of the
// key range, shared with math.MaxFloat64, so the bin array never
// leaves the range and the sketch still round-trips its codec.
func TestSketchInfinityInTopBin(t *testing.T) {
	s := NewSketch(0)
	_, top := s.keyRange()
	s.Add(math.Inf(1))
	if s.Bins() != 1 || s.offset != top || len(s.bins) != 1 {
		t.Fatalf("+Inf in bin %d (%d bins, array of %d), want top bin %d", s.offset, s.Bins(), len(s.bins), top)
	}
	s.Add(math.MaxFloat64)
	if s.Bins() != 1 || s.bins[0] != 2 {
		t.Fatalf("MaxFloat64 did not share +Inf's bin: %d bins, counts %v", s.Bins(), s.bins)
	}
	if got := s.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("q1 = %v, want +Inf", got)
	}
	enc := s.AppendBinary(nil)
	back, err := DecodeSketch(NewDecoder(enc))
	if err != nil || !bytes.Equal(back.AppendBinary(nil), enc) {
		t.Fatalf("top-bin sketch does not round-trip: %v", err)
	}
}

func TestSketchMergeRejectsMismatchedError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging sketches with different RelErr must panic")
		}
	}()
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	a.Merge(b)
}

func TestBinnedAddMergeCum(t *testing.T) {
	b := NewBinned(time.Second, 10*time.Second)
	if len(b.Bins) != 10 {
		t.Fatalf("bins = %d, want 10", len(b.Bins))
	}
	b.Add(0, 1)
	b.Add(1500*time.Millisecond, 2)
	b.Add(-time.Second, 4)    // clamps to first bin
	b.Add(10*time.Second, 8)  // exactly at horizon → last bin
	b.Add(99*time.Second, 16) // beyond horizon → last bin
	if b.Bins[0] != 5 || b.Bins[1] != 2 || b.Bins[9] != 24 {
		t.Fatalf("bins = %v", b.Bins)
	}
	if b.Sum() != 31 {
		t.Fatalf("sum = %v", b.Sum())
	}
	o := NewBinned(time.Second, 10*time.Second)
	o.Add(2*time.Second, 3)
	b.Merge(o)
	if b.Bins[2] != 3 {
		t.Fatalf("merge: bins = %v", b.Bins)
	}
	cum := b.Cum()
	if cum[0] != 5 || cum[2] != 10 || cum[9] != 34 {
		t.Fatalf("cum = %v", cum)
	}
	if ps := b.PerSecond(); ps[2] != 3 {
		t.Fatalf("per-second = %v", ps)
	}
	if got := b.From(8 * time.Second); len(got) != 2 {
		t.Fatalf("From(8s) len = %d", len(got))
	}
}

func TestBinnedMergeRejectsGeometryMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging different geometries must panic")
		}
	}()
	NewBinned(time.Second, 10*time.Second).Merge(NewBinned(time.Second, 11*time.Second))
}

func TestCVAndPeakToMean(t *testing.T) {
	flat := []float64{4, 4, 4, 4}
	if got := CV(flat); got != 0 {
		t.Fatalf("CV(flat) = %v", got)
	}
	if got := PeakToMean(flat); got != 1 {
		t.Fatalf("PeakToMean(flat) = %v", got)
	}
	bursty := []float64{0, 0, 0, 16}
	if cv := CV(bursty); math.Abs(cv-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("CV(bursty) = %v, want sqrt(3)", cv)
	}
	if ptm := PeakToMean(bursty); ptm != 4 {
		t.Fatalf("PeakToMean(bursty) = %v", ptm)
	}
	if !math.IsNaN(CV(nil)) || !math.IsNaN(PeakToMean(nil)) {
		t.Fatal("empty series must be NaN")
	}
}

// BenchmarkSketchAddMerge measures the two operations a fleet's
// statistics fold is made of: add is one Add into a sketch, and merge
// is one Merge of a populated sketch into another, the per-cell fold.
// The samples are log-normal over several decades, so each sketch
// holds about 450 bins, and both sketches already hold every bin they
// reach, so even one op reports the steady state.
func BenchmarkSketchAddMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Exp(2 * r.NormFloat64())
	}
	b.Run("add", func(b *testing.B) {
		s := NewSketch(0)
		for _, x := range xs {
			s.Add(x)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			s.Add(xs[i%len(xs)])
		}
	})
	b.Run("merge", func(b *testing.B) {
		src, dst := NewSketch(0), NewSketch(0)
		for i, x := range xs {
			if i%2 == 0 {
				src.Add(x)
			} else {
				dst.Add(x)
			}
		}
		dst.Merge(src) // dst now holds every bin src reaches
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			dst.Merge(src)
		}
	})
}
