package scenario

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// serFleet exercises every serialized field: an adaptive mix populates
// the playback sketches and RungSec, and a ragged tail (clients not
// divisible by the group size) checks partial cells.
func serFleet(clients int) Fleet {
	return Fleet{
		Mix:      []MixEntry{{Player: AbrBuffer, Weight: 1}, {Player: AbrRate, Weight: 2}},
		Clients:  clients,
		Duration: 12 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 5 * time.Second},
		Seed:     23,
	}
}

// TestFleetResultRoundTrip pins the exactness of the codec: marshal →
// unmarshal → reflect.DeepEqual across every sketch, binned series,
// vector and scalar field, and re-marshalling the decoded result
// reproduces the original bytes (the encoding is canonical).
func TestFleetResultRoundTrip(t *testing.T) {
	f := serFleet(70)
	res := RunFleet(runner.Options{Workers: 1}, f)

	data, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFleetResult(data, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, res)
	}
	re, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("re-marshalling the decoded result changed the bytes")
	}
}

// BenchmarkFleetResultCodec measures the cell-record codec that
// distributed fleets and fleet-crowd's merges run: one op is one
// AppendBinary of a small fleet's result into a reused buffer plus one
// DecodeFleetResult of those bytes. The result is built once, before
// the timer starts. Decoding builds every sketch, binned series and
// vector afresh, so allocs/op and B/op are the cost of one record; the
// buffer is grown first, so even one op reports the steady state.
func BenchmarkFleetResultCodec(b *testing.B) {
	f := serFleet(33)
	res := RunFleet(runner.Options{Workers: 1}, f)
	buf := res.AppendBinary(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf = res.AppendBinary(buf[:0])
		if _, err := DecodeFleetResult(stats.NewDecoder(buf), f); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFleetResultCodecErrors(t *testing.T) {
	f := serFleet(33)
	res := RunFleet(runner.Options{Workers: 1}, f)
	data, _ := res.MarshalBinary()
	for _, cut := range []int{0, 7, 8, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalFleetResult(data[:cut], f); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := UnmarshalFleetResult(append(data, 0), f); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := UnmarshalFleetResult(bad, f); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	// The final word once flagged per-client vectors; a record that
	// still sets it is not one this codec writes.
	bad = append([]byte(nil), data...)
	bad[len(bad)-8] = 1
	if _, err := UnmarshalFleetResult(bad, f); err == nil {
		t.Fatal("a record whose final word is 1 decoded without error")
	}
}

// TestFleetMergeSerializedCells is the distributed-protocol golden at
// the acceptance scale (1,000 clients outside -race): cells serialized
// in contiguous ranges across several streams — exactly what -distributed
// child processes emit — must merge into a result that is DeepEqual to
// AND byte-identical with a single-process run.
func TestFleetMergeSerializedCells(t *testing.T) {
	f := detFleet()
	single := RunFleet(runner.Options{Workers: 1}, f)
	singleBytes, _ := single.MarshalBinary()

	cells := f.Cells()
	if cells < 3 {
		t.Fatalf("fleet too small to split: %d cells", cells)
	}
	// Uneven contiguous ranges, like child processes with ragged
	// splits (duplicate cuts collapse at small -race scales).
	cuts := []int{0, cells / 3, cells / 2, cells}
	var streams []*bytes.Buffer
	for i := 0; i+1 < len(cuts); i++ {
		if cuts[i] >= cuts[i+1] {
			continue
		}
		var buf bytes.Buffer
		if err := WriteFleetCells(&buf, runner.Options{Workers: 2}, f, cuts[i], cuts[i+1]); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, &buf)
	}
	readers := make([]io.Reader, len(streams))
	for i, s := range streams {
		readers[i] = s
	}
	merged, err := MergeFleetCellStreams(f, readers...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatalf("merged serialized cells differ from single-process run:\nmerged: %s\nsingle: %s",
			merged.Render(), single.Render())
	}
	mergedBytes, _ := merged.MarshalBinary()
	if !bytes.Equal(mergedBytes, singleBytes) {
		t.Fatal("merged artifact bytes differ from single-process bytes")
	}

	// A stream that covers only part of the fleet must be rejected.
	var partial bytes.Buffer
	if err := WriteFleetCells(&partial, runner.Options{Workers: 1}, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFleetCellStreams(f, &partial); err == nil {
		t.Fatal("partial coverage merged without error")
	}
}

// TestFleetMergeRejectsForeignGeometry: cell records that another
// fleet wrote must be refused, not folded. Records with 2 s utilization
// bins do not fit a 1 s fleet, whether every stream is foreign or one
// foreign stream follows an honest one, and a record whose sketch has
// another relative error is refused too.
func TestFleetMergeRejectsForeignGeometry(t *testing.T) {
	f := serFleet(40) // two cells: 32 clients and a ragged 8
	f.UtilBin = time.Second
	foreign := f
	foreign.UtilBin = 2 * time.Second
	write := func(f Fleet, lo, hi int) *bytes.Buffer {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteFleetCells(&buf, runner.Options{Workers: 1}, f, lo, hi); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := MergeFleetCellStreams(f, write(foreign, 0, 2)); err == nil {
		t.Fatal("cells with 2 s bins merged into a 1 s fleet without error")
	}
	if _, err := MergeFleetCellStreams(f, write(f, 0, 1), write(foreign, 1, 2)); err == nil {
		t.Fatal("a cell with 2 s bins merged among honest ones without error")
	}

	rec := write(f, 0, 1).Bytes()[8:] // drop the length prefix
	cell, err := UnmarshalFleetResult(rec, f)
	if err != nil {
		t.Fatal(err)
	}
	cell.RateMbps = stats.NewSketch(2 * stats.DefaultSketchErr)
	cell.RateMbps.Add(1)
	data := cell.AppendBinary(nil)
	var odd bytes.Buffer
	odd.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
	odd.Write(data)
	if _, err := MergeFleetCellStreams(f, &odd, write(f, 1, 2)); err == nil {
		t.Fatal("a cell whose sketch has another relative error merged without error")
	}
}

func TestWriteFleetCellsValidatesRange(t *testing.T) {
	f := serFleet(70)
	var buf bytes.Buffer
	for _, r := range [][2]int{{-1, 1}, {0, 100}, {2, 2}, {3, 1}} {
		if err := WriteFleetCells(&buf, runner.Options{}, f, r[0], r[1]); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

// FuzzUnmarshalFleetResult drives the cell-record decoder that
// MergeFleetCellStreams runs on every record a distributed child
// sends. Properties: no panic, and either an error or a result that
// re-encodes to exactly the input bytes. The encoding is canonical, so
// an accepted record must be its own canonical form; anything else
// would fold differently from the cell that was sent.
func FuzzUnmarshalFleetResult(f *testing.F) {
	spec := serFleet(40) // two cells: 32 clients and a ragged 8
	spec.Duration = 4 * time.Second
	spec.Arrival.Window = 2 * time.Second
	var stream bytes.Buffer
	if err := WriteFleetCells(&stream, runner.Options{Workers: 1}, spec, 0, spec.Cells()); err != nil {
		f.Fatal(err)
	}
	var recs [][]byte
	for b := stream.Bytes(); len(b) >= 8; {
		n := binary.LittleEndian.Uint64(b)
		recs = append(recs, b[8:8+n])
		b = b[8+n:]
	}
	for _, rec := range recs {
		f.Add(rec)
	}
	cell, err := UnmarshalFleetResult(recs[0], spec)
	if err != nil {
		f.Fatal(err)
	}
	// Sketch bins at both ends of the key range: the smallest
	// trackable value and +Inf, which shares the top bin.
	cell.RateMbps.Add(1e-9)
	cell.RateMbps.Add(math.Inf(1))
	f.Add(cell.AppendBinary(nil))
	// The final word, which once flagged per-client vectors, must be 0.
	rec := cell.AppendBinary(nil)
	rec[len(rec)-8] = 1
	f.Add(rec)
	// A nil sketch encodes as RelErr +0; -0 is not canonical. The
	// first sketch follows the magic, Clients and Groups.
	cell.RateMbps = nil
	rec = cell.AppendBinary(nil)
	rec[3*8+7] |= 0x80
	f.Add(rec)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalFleetResult(data, spec)
		if err != nil {
			return
		}
		if got := r.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes to other bytes (%d vs %d)", len(got), len(data))
		}
	})
}
