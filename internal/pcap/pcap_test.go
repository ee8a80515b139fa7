package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"repro/internal/packet"
)

func seg(seq uint32, payload []byte) *packet.Segment {
	return &packet.Segment{
		Flow:    packet.Flow{Src: packet.EP(10, 0, 0, 1, 5000), Dst: packet.EP(10, 0, 0, 2, 80)},
		Seq:     seq,
		Flags:   packet.FlagACK,
		Window:  65536,
		Payload: payload,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{0, 1500 * time.Microsecond, 2 * time.Second}
	for i, ts := range times {
		if err := w.WritePacket(ts, seg(uint32(i), []byte("hello"))); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records != 3 {
		t.Fatalf("Records = %d, want 3", w.Records)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Link != LinkTypeRaw {
		t.Fatalf("link type %d, want %d", r.Link, LinkTypeRaw)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.TS != times[i] {
			t.Errorf("record %d ts %v, want %v", i, rec.TS, times[i])
		}
		s, err := packet.Parse(rec.Data)
		if err != nil {
			t.Fatalf("record %d does not parse: %v", i, err)
		}
		if s.Seq != uint32(i) || string(s.Payload) != "hello" {
			t.Errorf("record %d decoded wrong: %v", i, s)
		}
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 60)
	if err != nil {
		t.Fatal(err)
	}
	big := seg(1, bytes.Repeat([]byte{9}, 1000))
	if err := w.WritePacket(time.Second, big); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 60 {
		t.Fatalf("captured %d bytes, want 60", len(rec.Data))
	}
	if rec.OrigLen != 1040 {
		t.Fatalf("OrigLen %d, want 1040", rec.OrigLen)
	}
	s, err := packet.Parse(rec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if s.PayloadLen != 1000 {
		t.Fatalf("parsed PayloadLen %d, want 1000 from IP header", s.PayloadLen)
	}
	if len(s.Payload) != 20 {
		t.Fatalf("captured payload %d, want 20", len(s.Payload))
	}
}

func TestGlobalHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 96); err != nil {
		t.Fatal(err)
	}
	gh := buf.Bytes()
	if binary.LittleEndian.Uint32(gh[0:]) != 0xa1b2c3d4 {
		t.Error("bad magic")
	}
	if binary.LittleEndian.Uint16(gh[4:]) != 2 || binary.LittleEndian.Uint16(gh[6:]) != 4 {
		t.Error("bad version")
	}
	if binary.LittleEndian.Uint32(gh[16:]) != 96 {
		t.Error("bad snaplen")
	}
	if binary.LittleEndian.Uint32(gh[20:]) != LinkTypeRaw {
		t.Error("bad linktype")
	}
}

func TestBigEndianReader(t *testing.T) {
	// Hand-construct a big-endian capture with one empty record.
	var buf bytes.Buffer
	var gh [24]byte
	binary.BigEndian.PutUint32(gh[0:], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(gh[4:], 2)
	binary.BigEndian.PutUint16(gh[6:], 4)
	binary.BigEndian.PutUint32(gh[16:], 65535)
	binary.BigEndian.PutUint32(gh[20:], LinkTypeRaw)
	buf.Write(gh[:])
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:], 3)      // 3s
	binary.BigEndian.PutUint32(rh[4:], 500000) // .5s
	binary.BigEndian.PutUint32(rh[8:], 0)
	binary.BigEndian.PutUint32(rh[12:], 0)
	buf.Write(rh[:])

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.TS != 3*time.Second+500*time.Millisecond {
		t.Fatalf("ts %v, want 3.5s", rec.TS)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrFormat {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.WritePacket(0, seg(1, []byte("x")))
	full := buf.Bytes()
	// Cut inside the record body.
	r, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record gave err=%v, want a wrapped read error", err)
	}
}

// TestRecordAboveSnaplenRejected: a record header claiming more
// captured bytes than the file's snaplen is malformed, and Next must
// say so before it allocates or reads the record body.
func TestRecordAboveSnaplenRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 96); err != nil {
		t.Fatal(err)
	}
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[8:], 97)
	binary.LittleEndian.PutUint32(rh[12:], 1500)
	buf.Write(rh[:]) // no body: only the header may be read
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrFormat {
		t.Fatalf("caplen 97 under snaplen 96: err = %v, want ErrFormat", err)
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty capture: recs=%d err=%v", len(recs), err)
	}
}

// TestWritePacketReusesClearedBuffer: the Writer serializes every
// packet into one reused buffer, so a packet must not inherit bytes of
// a larger one before it — a zero-filled payload (nil Payload) written
// after a full one stays zero — and steady-state writes do not
// allocate.
func TestWritePacketReusesClearedBuffer(t *testing.T) {
	full := seg(1, bytes.Repeat([]byte{0xAB}, 1460))
	zeroFilled := seg(2, nil)
	zeroFilled.PayloadLen = 1000
	short := seg(3, []byte("hi"))
	segs := []*packet.Segment{full, zeroFilled, short, full}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		if err := w.WritePacket(time.Duration(i), s); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != len(segs) {
		t.Fatalf("read %d records (%v), want %d", len(recs), err, len(segs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, segs[i].Marshal()) {
			t.Fatalf("record %d differs from the segment's own wire bytes", i)
		}
	}
	dw, _ := NewWriter(io.Discard, 0)
	if n := testing.AllocsPerRun(100, func() { _ = dw.WritePacket(0, full) }); n != 0 {
		t.Fatalf("WritePacket allocates %v times per packet, want 0", n)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard, 0)
	s := seg(1, make([]byte, 1460))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.WritePacket(time.Duration(i), s)
	}
}
