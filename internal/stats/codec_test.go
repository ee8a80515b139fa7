package stats

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestSketchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(0.02)
	for i := 0; i < 5000; i++ {
		s.Add(math.Exp(rng.NormFloat64() * 6)) // span many orders of magnitude
	}
	for i := 0; i < 50; i++ {
		s.Add(0) // populate the zero bin
	}
	buf := s.AppendBinary(nil)
	if !reflect.DeepEqual(buf, s.AppendBinary(nil)) {
		t.Fatal("encoding is not canonical: two encodes differ")
	}
	d := NewDecoder(buf)
	got, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after decode", d.Len())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// The decoded sketch must be merge-compatible and answer the same
	// quantiles bit-for-bit.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got.Quantile(q) != s.Quantile(q) {
			t.Fatalf("quantile %v differs after round-trip", q)
		}
	}
}

func TestSketchCodecEmptyAndNil(t *testing.T) {
	empty := NewSketch(0.01)
	d := NewDecoder(empty.AppendBinary(nil))
	got, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty sketch round-trip mismatch: %+v", got)
	}

	var nilSketch *Sketch
	d = NewDecoder(nilSketch.AppendBinary(nil))
	got, err = DecodeSketch(d)
	if err != nil || got != nil {
		t.Fatalf("nil sketch round-trip = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestBinnedCodecRoundTrip(t *testing.T) {
	b := NewBinned(250*time.Millisecond, 30*time.Second)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b.Add(time.Duration(rng.Int63n(int64(30*time.Second))), rng.Float64()*1500)
	}
	buf := b.AppendBinary(nil)
	d := NewDecoder(buf)
	got, err := DecodeBinned(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after decode", d.Len())
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatal("binned round-trip mismatch")
	}

	var nilBinned *Binned
	d = NewDecoder(nilBinned.AppendBinary(nil))
	got, err = DecodeBinned(d)
	if err != nil || got != nil {
		t.Fatalf("nil binned round-trip = (%v, %v), want (nil, nil)", got, err)
	}
}

// Concatenated encodings must decode in sequence — the per-cell stream
// format depends on it.
func TestCodecSequence(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(3.5)
	b := NewBinned(time.Second, 10*time.Second)
	b.Add(2*time.Second, 7)
	buf := s.AppendBinary(nil)
	buf = b.AppendBinary(buf)
	buf = appendI64(buf, 42)

	d := NewDecoder(buf)
	gs, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := DecodeBinned(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.I64(); v != 42 || d.Err() != nil || d.Len() != 0 {
		t.Fatalf("trailing scalar = %d, err %v, left %d", v, d.Err(), d.Len())
	}
	if !reflect.DeepEqual(gs, s) || !reflect.DeepEqual(gb, b) {
		t.Fatal("sequence decode mismatch")
	}
}

func TestCodecTruncation(t *testing.T) {
	s := NewSketch(0.01)
	for i := 1; i <= 40; i++ {
		s.Add(float64(i))
	}
	full := s.AppendBinary(nil)
	for cut := 0; cut < len(full); cut += 7 {
		d := NewDecoder(full[:cut])
		if _, err := DecodeSketch(d); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	// A corrupt count that implies more bytes than exist must error,
	// not allocate or hang.
	bad := append([]byte(nil), full...)
	for i := 0; i < 8; i++ {
		bad[48+i] = 0xff // overwrite the key-count field
	}
	if _, err := DecodeSketch(NewDecoder(bad)); err == nil {
		t.Fatal("absurd key count decoded without error")
	}
}

// rawSketch encodes a sketch field by field, whether or not the
// fields are consistent; bins are (key, count) pairs.
func rawSketch(relErr float64, zeros, n int64, bins ...int64) []byte {
	buf := appendF64(nil, relErr)
	buf = appendI64(buf, zeros)
	buf = appendI64(buf, n)
	buf = appendF64(buf, 3) // sum
	buf = appendF64(buf, 0) // min
	buf = appendF64(buf, 2) // max
	buf = appendI64(buf, int64(len(bins)/2))
	for _, v := range bins {
		buf = appendI64(buf, v)
	}
	return buf
}

// TestDecodeSketchRejectsNonCanonical pins DecodeSketch's input
// checks: only the canonical form decodes, and a rejected input
// allocates no bin array, however far its keys reach.
func TestDecodeSketchRejectsNonCanonical(t *testing.T) {
	e := DefaultSketchErr
	lo, hi := NewSketch(e).keyRange()
	kmin, kmax := int64(lo), int64(hi)
	flo, fhi := NewSketch(minRelErr).keyRange()
	decode := func(b []byte) (*Sketch, error) {
		d := NewDecoder(b)
		s, err := DecodeSketch(d)
		if err == nil && d.Len() != 0 {
			t.Fatalf("%d bytes left after decode", d.Len())
		}
		return s, err
	}

	for name, b := range map[string][]byte{
		"bins":      rawSketch(e, 1, 4, 10, 2, 12, 1),
		"zeros":     rawSketch(e, 3, 3),
		"range":     rawSketch(e, 0, 2, kmin, 1, kmax, 1),
		"finest":    rawSketch(minRelErr, 0, 2, int64(flo), 1, int64(fhi), 1),
		"coarsest":  rawSketch(0.99, 0, 1, 0, 1),
		"empty":     rawSketch(e, 0, 0),
		"big-count": rawSketch(e, 0, math.MaxInt64, 7, math.MaxInt64),
	} {
		s, err := decode(b)
		if err != nil {
			t.Fatalf("%s: canonical sketch rejected: %v", name, err)
		}
		if !bytes.Equal(s.AppendBinary(nil), b) {
			t.Fatalf("%s: decoded sketch re-encodes differently", name)
		}
	}
	// The widest stores the type doc promises: about 36.5k entries at
	// DefaultSketchErr and 365k at minRelErr.
	if s, _ := decode(rawSketch(e, 0, 2, kmin, 1, kmax, 1)); len(s.bins) != int(kmax-kmin+1) || len(s.bins) > 36600 || s.Bins() != 2 {
		t.Fatalf("full-range sketch holds %d array entries, %d bins; want %d, 2", len(s.bins), s.Bins(), kmax-kmin+1)
	}
	if span := fhi - flo + 1; span > 366000 {
		t.Fatalf("key range at minRelErr spans %d bins", span)
	}

	cases := map[string][]byte{
		"relerr below minimum": rawSketch(minRelErr/2, 0, 1, 5, 1),
		"negative relerr":      rawSketch(-e, 0, 1, 5, 1),
		"nan relerr":           rawSketch(math.NaN(), 0, 1, 5, 1),
		"relerr one":           rawSketch(1, 0, 1, 5, 1),
		"negative zero relerr": rawSketch(math.Copysign(0, -1), 0, 0),
		"key below range":      rawSketch(e, 0, 2, kmin-1, 1, 5, 1),
		"key above range":      rawSketch(e, 0, 2, 5, 1, kmax+1, 1),
		"key far above range":  rawSketch(e, 0, 2, -1<<40, 1, 1<<40, 1),
		"repeated key":         rawSketch(e, 0, 2, 5, 1, 5, 1),
		"decreasing keys":      rawSketch(e, 0, 2, 6, 1, 5, 1),
		"zero count":           rawSketch(e, 0, 1, 5, 1, 6, 0),
		"negative count":       rawSketch(e, 0, 1, 5, 2, 6, -1),
		"counts short of n":    rawSketch(e, 1, 5, 5, 2, 6, 1),
		"counts past n":        rawSketch(e, 1, 3, 5, 2, 6, 1),
		"n without bins":       rawSketch(e, 1, 2),
		"negative zeros":       rawSketch(e, -1, 1, 5, 2),
		"counts overflow":      rawSketch(e, 0, math.MaxInt64, 5, math.MaxInt64, 6, math.MaxInt64),
	}
	empty := rawSketch(e, 0, 0)
	base := testing.AllocsPerRun(20, func() { _, _ = decode(empty) })
	for name, b := range cases {
		if s, err := decode(b); err == nil {
			t.Fatalf("%s: decoded without error: %+v", name, s)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = decode(b) }); allocs > base {
			t.Fatalf("%s: rejection allocated %v times, an empty sketch %v", name, allocs, base)
		}
	}
}
