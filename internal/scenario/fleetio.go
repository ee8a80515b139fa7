package scenario

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Binary serialization of FleetResult, exact and canonical: floats
// cross process boundaries as IEEE-754 bit patterns and sketches
// encode their bins in sorted order, so a result marshals to the same
// bytes however it was computed, and a distributed run that folds
// unmarshalled per-cell results reproduces a single-process run
// bit for bit. The Fleet spec itself is NOT part of the encoding —
// every process already has it from its own flags — which also keeps
// the artifact comparable across runs that differ only in execution
// shape (workers, processes).

// fleetResultMagic versions the encoding ("FLR1").
const fleetResultMagic = 0x31524c46

func fleetAppendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func fleetAppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func fleetAppendVec(buf []byte, xs []float64) []byte {
	buf = fleetAppendI64(buf, int64(len(xs)))
	for _, x := range xs {
		buf = fleetAppendF64(buf, x)
	}
	return buf
}

func fleetDecodeVec(d *stats.Decoder) ([]float64, error) {
	n := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > int64(d.Len()/8) {
		return nil, stats.ErrCodec
	}
	if n == 0 {
		return nil, nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.F64()
	}
	return xs, d.Err()
}

// AppendBinary appends the canonical encoding of r to buf.
func (r *FleetResult) AppendBinary(buf []byte) []byte {
	buf = fleetAppendI64(buf, fleetResultMagic)
	buf = fleetAppendI64(buf, int64(r.Clients))
	buf = fleetAppendI64(buf, int64(r.Groups))
	st := r.statFields()
	for _, sk := range st.sketches[:qoeSketches] {
		buf = (*sk).AppendBinary(buf)
	}
	buf = fleetAppendVec(buf, r.RungSec)
	for _, b := range st.series {
		buf = (*b).AppendBinary(buf)
	}
	for _, sk := range st.sketches[qoeSketches:] {
		buf = (*sk).AppendBinary(buf)
	}
	buf = fleetAppendI64(buf, int64(r.CoreOffered))
	buf = fleetAppendI64(buf, int64(r.CoreDropped))
	buf = fleetAppendI64(buf, int64(r.AggDropped))
	buf = fleetAppendI64(buf, int64(r.AccessDropped))
	buf = fleetAppendI64(buf, int64(r.Unrouted))
	buf = fleetAppendF64(buf, r.InducedCoreLoss)
	buf = fleetAppendI64(buf, r.Downloaded)
	buf = fleetAppendI64(buf, int64(r.ActiveClients))
	buf = fleetAppendI64(buf, int64(r.StarvedClients))
	// The final word once flagged per-client sample vectors that only
	// tests asked for. It stays, always 0, so a cell record keeps the
	// bytes it had.
	return fleetAppendI64(buf, 0)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *FleetResult) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(nil), nil
}

// DecodeFleetResult reads one FleetResult written by AppendBinary.
// The Fleet spec is supplied by the caller (it is not serialized) and
// resolved with the same defaulting a run applies. Only the canonical
// encoding decodes: an accepted record re-encodes to its own bytes.
func DecodeFleetResult(d *stats.Decoder, f Fleet) (*FleetResult, error) {
	if d.I64() != fleetResultMagic {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("scenario: fleet result encoding: bad magic")
	}
	r := &FleetResult{Fleet: f.withDefaults()}
	r.Clients = int(d.I64())
	r.Groups = int(d.I64())
	var err error
	st := r.statFields()
	for _, sk := range st.sketches[:qoeSketches] {
		if *sk, err = stats.DecodeSketch(d); err != nil {
			return nil, err
		}
	}
	if r.RungSec, err = fleetDecodeVec(d); err != nil {
		return nil, err
	}
	for _, b := range st.series {
		if *b, err = stats.DecodeBinned(d); err != nil {
			return nil, err
		}
	}
	for _, sk := range st.sketches[qoeSketches:] {
		if *sk, err = stats.DecodeSketch(d); err != nil {
			return nil, err
		}
	}
	r.CoreOffered = int(d.I64())
	r.CoreDropped = int(d.I64())
	r.AggDropped = int(d.I64())
	r.AccessDropped = int(d.I64())
	r.Unrouted = int(d.I64())
	r.InducedCoreLoss = d.F64()
	r.Downloaded = d.I64()
	r.ActiveClients = int(d.I64())
	r.StarvedClients = int(d.I64())
	if last := d.I64(); last != 0 {
		return nil, fmt.Errorf("scenario: fleet result encoding: final word %d, want 0", last)
	}
	return r, d.Err()
}

// UnmarshalFleetResult decodes one complete FleetResult from data.
func UnmarshalFleetResult(data []byte, f Fleet) (*FleetResult, error) {
	d := stats.NewDecoder(data)
	r, err := DecodeFleetResult(d, f)
	if err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("scenario: fleet result encoding: %d trailing bytes", d.Len())
	}
	return r, nil
}

// maxFleetRecord bounds one serialized cell record — a corruption
// guard, far above anything a real cell produces.
const maxFleetRecord = 1 << 30

// WriteFleetCells runs cells [lo, hi) of the fleet and streams each
// cell's result to w as a length-prefixed record, in cell order. This
// is the distributed child's side of the protocol: per-cell results
// (never locally folded partials) cross the pipe, so the parent can
// perform the one global left fold that keeps the merged bytes
// identical to a single-process run.
func WriteFleetCells(w io.Writer, o runner.Options, f Fleet, lo, hi int) error {
	f = f.withDefaults()
	if err := f.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi > f.cells() || lo >= hi {
		return fmt.Errorf("scenario: cell range [%d,%d) outside fleet's %d cells", lo, hi, f.cells())
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	var werr error
	runFleetCellRange(o, f, lo, hi, func(_ int, r *FleetResult) {
		if werr != nil {
			return
		}
		scratch = r.AppendBinary(scratch[:0])
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(scratch)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			werr = err
			return
		}
		if _, err := bw.Write(scratch); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// MergeFleetCellStreams reads length-prefixed per-cell records from
// the readers in order — the readers must cover cells 0..N-1
// contiguously, in fleet order — and left-folds them exactly as a
// single-process RunFleet does, returning the finalized result. A
// record whose sketches or binned series were not built for f (see
// checkCellGeometry) is an error naming its stream.
func MergeFleetCellStreams(f Fleet, readers ...io.Reader) (*FleetResult, error) {
	f = f.withDefaults()
	geom := stats.NewBinned(f.UtilBin, f.Duration)
	var res *FleetResult
	for i, rd := range readers {
		br := bufio.NewReader(rd)
		for {
			var lenBuf [8]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				if err == io.EOF {
					break
				}
				return nil, fmt.Errorf("scenario: cell stream %d: %w", i, err)
			}
			n := binary.LittleEndian.Uint64(lenBuf[:])
			if n == 0 || n > maxFleetRecord {
				return nil, fmt.Errorf("scenario: cell stream %d: bad record length %d", i, n)
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("scenario: cell stream %d: %w", i, err)
			}
			cell, err := UnmarshalFleetResult(buf, f)
			if err == nil {
				err = checkCellGeometry(cell, geom)
			}
			if err != nil {
				return nil, fmt.Errorf("scenario: cell stream %d: %w", i, err)
			}
			if res == nil {
				res = cell
			} else {
				res.merge(cell)
			}
		}
	}
	if res == nil {
		return nil, fmt.Errorf("scenario: no cell records in any stream")
	}
	if res.Clients != f.Clients {
		return nil, fmt.Errorf("scenario: merged streams cover %d clients, fleet has %d", res.Clients, f.Clients)
	}
	res.finalize()
	return res, nil
}

// checkCellGeometry rejects a decoded cell that another fleet wrote:
// every cell's sketches keep stats.DefaultSketchErr and every binned
// series has geom's width and bin count (the fleet's UtilBin over its
// Duration). Folding anything else would mix bins of different
// meaning, or panic inside Merge.
func checkCellGeometry(r *FleetResult, geom *stats.Binned) error {
	st := r.statFields()
	for _, skp := range st.sketches {
		if sk := *skp; sk == nil || sk.RelErr != stats.DefaultSketchErr {
			return fmt.Errorf("sketch relative error differs from the fleet's %v", stats.DefaultSketchErr)
		}
	}
	for _, bp := range st.series {
		if b := *bp; b == nil || b.Width != geom.Width || len(b.Bins) != len(geom.Bins) {
			return fmt.Errorf("binned series geometry differs from the fleet's %d bins of %v", len(geom.Bins), geom.Width)
		}
	}
	return nil
}
