package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// Binary codecs for Sketch and Binned. Distributed fleet runs ship
// per-cell results across process boundaries and must merge into the
// same bytes a single-process run produces, so the encoding is exact
// and canonical: every float crosses as its IEEE-754 bit pattern
// (math.Float64bits — no text formatting, no rounding), sketch bins are
// emitted in key order, and all integers are fixed-width
// little-endian. Encoding the same value twice yields identical bytes.

// ErrCodec reports a truncated or structurally invalid encoding.
var ErrCodec = errors.New("stats: truncated or corrupt encoding")

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendI64(buf []byte, v int64) []byte {
	return appendU64(buf, uint64(v))
}

func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

// Decoder consumes the canonical encoding. Errors latch: after the
// first short read every subsequent call returns zero values, and Err
// reports the failure once at the end — call sites stay linear.
type Decoder struct {
	data []byte
	off  int
	bad  bool
}

// NewDecoder wraps data for decoding starting at offset 0.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns ErrCodec if any read ran past the input.
func (d *Decoder) Err() error {
	if d.bad {
		return ErrCodec
	}
	return nil
}

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// U64 reads one little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.bad || d.off+8 > len(d.data) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// I64 reads one little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads one float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// AppendBinary appends the canonical encoding of s to buf: RelErr,
// zeros, n, sum, min and max, then the occupied bins as (key, count)
// pairs in increasing key order. A nil sketch encodes like an empty
// one with RelErr 0 (decode restores nil).
func (s *Sketch) AppendBinary(buf []byte) []byte {
	if s == nil {
		return appendF64(buf, 0)
	}
	buf = appendF64(buf, s.RelErr)
	buf = appendI64(buf, s.zeros)
	buf = appendI64(buf, s.n)
	buf = appendF64(buf, s.sum)
	buf = appendF64(buf, s.min)
	buf = appendF64(buf, s.max)
	buf = appendI64(buf, int64(s.used))
	for i, c := range s.bins {
		if c != 0 {
			buf = appendI64(buf, int64(s.offset+i))
			buf = appendI64(buf, c)
		}
	}
	return buf
}

// DecodeSketch reads one sketch written by AppendBinary. The gamma
// terms are recomputed from the decoded RelErr exactly as NewSketch
// computes them, so a round-trip is indistinguishable from the
// original (reflect.DeepEqual-equal and merge-compatible). Only the
// canonical form decodes. Before it allocates the bin array it
// rejects a RelErr outside [minRelErr, 1) other than the nil
// sketch's +0, a key outside the sketch's key range, keys that do not
// strictly increase, a count below 1, and counts that with zeros do
// not add up to n. So no input grows a sketch past its key range, and
// every accepted sketch re-encodes to the bytes it came from.
func DecodeSketch(d *Decoder) (*Sketch, error) {
	relErr := d.F64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if math.Float64bits(relErr) == 0 {
		return nil, nil
	}
	if !(relErr >= minRelErr && relErr < 1) {
		return nil, ErrCodec
	}
	s := NewSketch(relErr)
	s.zeros = d.I64()
	s.n = d.I64()
	s.sum = d.F64()
	s.min = d.F64()
	s.max = d.F64()
	nk := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nk < 0 || nk > int64(d.Len()/16) || s.zeros < 0 || s.n < s.zeros {
		return nil, ErrCodec
	}
	kmin, kmax := s.keyRange()
	pairs := d.off
	first, prev := int64(0), int64(kmin)-1
	left := s.n - s.zeros
	for i := range nk {
		k, c := d.I64(), d.I64()
		if k <= prev || k > int64(kmax) || c < 1 || c > left {
			return nil, ErrCodec
		}
		if i == 0 {
			first = k
		}
		prev, left = k, left-c
	}
	if left != 0 {
		return nil, ErrCodec
	}
	if nk > 0 {
		s.bins = make([]int64, prev-first+1)
		s.offset = int(first)
		s.used = int(nk)
		d.off = pairs
		for range nk {
			k, c := d.I64(), d.I64()
			s.bins[k-first] = c
		}
	}
	return s, nil
}

// AppendBinary appends the canonical encoding of b to buf. A nil
// series encodes with width 0 (decode restores nil).
func (b *Binned) AppendBinary(buf []byte) []byte {
	if b == nil {
		return appendI64(buf, 0)
	}
	buf = appendI64(buf, int64(b.Width))
	buf = appendI64(buf, int64(len(b.Bins)))
	for _, v := range b.Bins {
		buf = appendF64(buf, v)
	}
	return buf
}

// DecodeBinned reads one binned series written by AppendBinary.
func DecodeBinned(d *Decoder) (*Binned, error) {
	width := time.Duration(d.I64())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if width == 0 {
		return nil, nil
	}
	if width < 0 {
		return nil, ErrCodec
	}
	n := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > int64(d.Len()/8) {
		return nil, ErrCodec
	}
	b := &Binned{Width: width, Bins: make([]float64, n)}
	for i := range b.Bins {
		b.Bins[i] = d.F64()
	}
	return b, d.Err()
}
