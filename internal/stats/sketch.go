package stats

import "math"

// Sketch is a mergeable streaming quantile sketch with a guaranteed
// relative error: every quantile estimate is within RelErr of the true
// sample value at that rank. It is the DDSketch construction —
// logarithmic bins of width log(gamma), gamma = (1+e)/(1-e) — chosen
// over rank-based sketches because merging is plain bin-count
// addition, which keeps fleet shards bit-reproducible for any worker
// count.
//
// The bins are one dense array over the contiguous span of keys the
// sketch has seen, so Add and Merge index it and Quantile and
// AppendBinary walk it in key order. Memory follows that span, not
// the sample count: per-client QoE metrics from thousands of sessions
// span a few decades, a few hundred bins. Keys never leave
// [key(minTrackable), key(math.MaxFloat64)], and RelErr is at least
// minRelErr, so no input grows a sketch past about 365k bins (2.9 MB);
// at DefaultSketchErr the bound is about 36.5k bins (292 KB).
//
// Values must be non-negative (rates, delays, byte counts — every
// fleet metric); values below minTrackable collapse into a dedicated
// zero bin whose estimate is exactly 0.
type Sketch struct {
	// RelErr is the relative accuracy guarantee, fixed at creation.
	RelErr float64

	gamma   float64 // (1+RelErr)/(1-RelErr)
	lnGamma float64

	// bins[i] counts the samples of key offset+i. It spans exactly the
	// lowest to the highest key added, so both of its ends are
	// occupied; used counts its nonzero entries.
	bins   []int64
	offset int
	used   int

	zeros int64
	n     int64
	sum   float64
	min   float64
	max   float64
}

// minTrackable is the smallest magnitude the log bins resolve; smaller
// samples count as zero. Fleet metrics (Mbps, seconds) sit far above.
const minTrackable = 1e-9

// DefaultSketchErr is the relative error used when NewSketch is given
// a non-positive one: 1% — invisible next to seed-to-seed variance.
const DefaultSketchErr = 0.01

// minRelErr is the finest relative error a sketch keeps. It bounds the
// key range, and so the bin array, at about 365k bins.
const minRelErr = 0.001

// NewSketch returns an empty sketch with the given relative error
// guarantee: non-positive (or NaN) means DefaultSketchErr, and the
// rest is held to [minRelErr, 0.99].
func NewSketch(relErr float64) *Sketch {
	switch {
	case !(relErr > 0):
		relErr = DefaultSketchErr
	case relErr < minRelErr:
		relErr = minRelErr
	case relErr >= 1:
		relErr = 0.99
	}
	gamma := (1 + relErr) / (1 - relErr)
	return &Sketch{
		RelErr:  relErr,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// key returns the bin index covering x: the smallest k with
// gamma^k >= x, so bin k spans (gamma^(k-1), gamma^k]. +Inf shares
// the top bin with math.MaxFloat64.
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(min(x, math.MaxFloat64)) / s.lnGamma))
}

// keyRange returns the lowest and highest key a sample can take.
func (s *Sketch) keyRange() (lo, hi int) {
	return s.key(minTrackable), s.key(math.MaxFloat64)
}

// estimate returns the midpoint value of bin k; its relative distance
// to any sample in the bin is at most RelErr.
func (s *Sketch) estimate(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// cover extends the bin array to span keys lo..hi (lo <= hi) as well
// as the keys it already spans. Entries past len(s.bins) in the
// backing array are always zero, so growing in place needs no clear
// at the top. A new lowest key shifts the array up, O(span); a stream
// in random order meets a new lowest key about ln(n) times.
func (s *Sketch) cover(lo, hi int) {
	if len(s.bins) == 0 {
		s.offset = lo
	}
	lo, hi = min(lo, s.offset), max(hi, s.offset+len(s.bins)-1)
	n, old, shift := hi-lo+1, len(s.bins), s.offset-lo
	if n == old {
		return
	}
	if n <= cap(s.bins) {
		s.bins = s.bins[:n]
		if shift > 0 {
			copy(s.bins[shift:], s.bins[:old])
			clear(s.bins[:shift])
		}
	} else {
		kmin, kmax := s.keyRange()
		grown := make([]int64, n, max(n, min(2*n, kmax-kmin+1)))
		copy(grown[shift:], s.bins)
		s.bins = grown
	}
	s.offset = lo
}

// Add inserts one sample. Negative samples are clamped to zero (the
// metrics this sketch serves are non-negative by construction).
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x < minTrackable {
		s.zeros++
		return
	}
	k := s.key(x)
	if k < s.offset || k >= s.offset+len(s.bins) {
		s.cover(k, k)
	}
	b := &s.bins[k-s.offset]
	if *b == 0 {
		s.used++
	}
	*b++
}

// Merge folds o into s. Both sketches must have been created with the
// same RelErr; merging is exact (the merged sketch equals the sketch
// of the concatenated streams), which is what makes sharded fleet
// statistics independent of the worker count.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if o.RelErr != s.RelErr {
		panic("stats: merging sketches with different relative errors")
	}
	if len(o.bins) > 0 {
		s.cover(o.offset, o.offset+len(o.bins)-1)
		dst := s.bins[o.offset-s.offset:]
		for i, c := range o.bins {
			if c != 0 && dst[i] == 0 {
				s.used++
			}
			dst[i] += c
		}
	}
	s.zeros += o.zeros
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the number of samples added.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the exact running sum of the samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact sample mean (the sum is tracked exactly).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// Min and Max return the exact extremes.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact largest sample.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]): the
// value returned is within RelErr (relatively) of the sample that
// holds rank ceil(q*n) in the sorted stream. Estimates are clamped to
// the exact observed [Min, Max].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return 0
	}
	cum := s.zeros
	for i, c := range s.bins {
		cum += c
		if cum >= rank {
			est := s.estimate(s.offset + i)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// Median returns the 0.5 quantile estimate.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// Bins returns the number of occupied log bins, asserted O(log range)
// by tests.
func (s *Sketch) Bins() int { return s.used }
