package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func sampleSeg() *Segment {
	return &Segment{
		Flow: Flow{
			Src: EP(10, 0, 0, 1, 43211),
			Dst: EP(203, 0, 113, 5, 80),
		},
		Seq:     1000,
		Ack:     2000,
		Flags:   FlagACK | FlagPSH,
		Window:  256 << 10,
		Payload: []byte("GET /video HTTP/1.1\r\n"),
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	s := sampleSeg()
	b := s.Marshal()
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != s.Flow {
		t.Errorf("flow %v, want %v", got.Flow, s.Flow)
	}
	if got.Seq != s.Seq || got.Ack != s.Ack || got.Flags != s.Flags {
		t.Errorf("header mismatch: %+v vs %+v", got, s)
	}
	if got.Window != s.Window {
		t.Errorf("window %d, want %d (scale must round-trip)", got.Window, s.Window)
	}
	if !bytes.Equal(got.Payload, s.Payload) {
		t.Errorf("payload %q, want %q", got.Payload, s.Payload)
	}
	if got.PayloadLen != len(s.Payload) {
		t.Errorf("PayloadLen %d, want %d", got.PayloadLen, len(s.Payload))
	}
}

func TestMarshalZeroFilledPayload(t *testing.T) {
	s := sampleSeg()
	s.Payload = nil
	s.PayloadLen = 100
	b := s.Marshal()
	if len(b) != 140 {
		t.Fatalf("wire len %d, want 140", len(b))
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 100 {
		t.Fatalf("PayloadLen %d, want 100", got.PayloadLen)
	}
	for _, by := range got.Payload {
		if by != 0 {
			t.Fatal("synthetic payload must be zero-filled")
		}
	}
}

func TestParseTruncatedSnaplen(t *testing.T) {
	s := sampleSeg()
	s.Payload = bytes.Repeat([]byte{7}, 1000)
	full := s.Marshal()
	snap := full[:96] // typical tcpdump -s 96
	got, err := Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 1000 {
		t.Errorf("original len from IP header = %d, want 1000", got.PayloadLen)
	}
	if len(got.Payload) != 96-40 {
		t.Errorf("captured payload = %d bytes, want 56", len(got.Payload))
	}
	// The segment's length is the original one, not the captured prefix.
	if got.Len() != 1000 || got.WireLen() != 1040 {
		t.Errorf("Len %d WireLen %d, want 1000 and 1040", got.Len(), got.WireLen())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Error("short input should fail")
	}
	b := sampleSeg().Marshal()
	b[0] = 0x65 // IPv6 version nibble
	if _, err := Parse(b); err == nil {
		t.Error("non-IPv4 should fail")
	}
	b = sampleSeg().Marshal()
	b[9] = 17 // UDP
	if _, err := Parse(b); err == nil {
		t.Error("non-TCP should fail")
	}
}

func TestWindowSaturation(t *testing.T) {
	s := sampleSeg()
	s.Window = 1 << 30 // larger than 65535 << WindowScale
	got, err := Parse(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != 0xFFFF<<WindowScale {
		t.Fatalf("saturated window = %d, want %d", got.Window, 0xFFFF<<WindowScale)
	}
}

func TestFlowReverse(t *testing.T) {
	f := Flow{Src: EP(1, 2, 3, 4, 5), Dst: EP(6, 7, 8, 9, 10)}
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src {
		t.Fatalf("Reverse broken: %v", r)
	}
	if r.Reverse() != f {
		t.Fatal("double reverse must be identity")
	}
}

func TestFlagsAndStrings(t *testing.T) {
	s := &Segment{Flags: FlagSYN | FlagACK}
	if !s.HasFlag(FlagSYN) || !s.HasFlag(FlagACK) || s.HasFlag(FlagFIN) {
		t.Fatal("HasFlag broken")
	}
	if s.String() == "" || s.Flow.String() == "" {
		t.Fatal("String must be non-empty")
	}
	e := EP(192, 168, 1, 10, 8080)
	if e.String() != "192.168.1.10:8080" {
		t.Fatalf("endpoint string = %q", e.String())
	}
}

func TestIPChecksumValid(t *testing.T) {
	b := sampleSeg().Marshal()
	// Recompute including the stored checksum: result must be 0xFFFF
	// complemented to 0, i.e. the full sum folds to 0xFFFF.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	if uint16(sum) != 0xFFFF {
		t.Fatalf("IP checksum does not verify: fold=%#x", sum)
	}
}

// Property: any header combination round-trips (with window quantized
// to the fixed scale).
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		if len(payload) > 1460 {
			payload = payload[:1460]
		}
		s := &Segment{
			Flow:    Flow{Src: EP(1, 1, 1, 1, 1000), Dst: EP(2, 2, 2, 2, 80)},
			Seq:     seq,
			Ack:     ack,
			Flags:   flags,
			Window:  int(win) << WindowScale,
			Payload: payload,
		}
		got, err := Parse(s.Marshal())
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Ack == ack && got.Flags == flags &&
			got.Window == int(win)<<WindowScale && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	s := sampleSeg()
	c := s.Clone()
	c.Seq = 999
	if s.Seq == 999 {
		t.Fatal("Clone must not alias header fields")
	}
}

func BenchmarkMarshal(b *testing.B) {
	s := sampleSeg()
	s.Payload = make([]byte, 1460)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Marshal()
	}
}

func BenchmarkParse(b *testing.B) {
	s := sampleSeg()
	s.Payload = make([]byte, 1460)
	wire := s.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}
