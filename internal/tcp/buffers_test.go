package tcp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSendBufferSliceWithinChunk(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("hello world"))
	got, ok := b.Slice(6, 5)
	if !ok || string(got) != "world" {
		t.Fatalf("Slice(6,5) = %q, %v", got, ok)
	}
}

func TestSendBufferSliceSpansChunks(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abc"))
	b.Append([]byte("def"))
	b.Append([]byte("ghi"))
	got, ok := b.Slice(1, 7)
	if !ok || string(got) != "bcdefgh" {
		t.Fatalf("spanning slice = %q, %v", got, ok)
	}
}

func TestSendBufferSliceClampsAtEnd(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abcdef"))
	got, ok := b.Slice(4, 100)
	if !ok || string(got) != "ef" {
		t.Fatalf("clamped slice = %q, %v", got, ok)
	}
}

func TestSendBufferRelease(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abc"))
	b.Append([]byte("def"))
	b.Release(3)
	if _, ok := b.Slice(0, 3); ok {
		t.Fatal("released range must not be sliceable")
	}
	got, ok := b.Slice(3, 3)
	if !ok || string(got) != "def" {
		t.Fatalf("post-release slice = %q, %v", got, ok)
	}
	// Partial-chunk release keeps the chunk.
	b.Release(4)
	got, ok = b.Slice(4, 2)
	if !ok || string(got) != "ef" {
		t.Fatalf("partial-release slice = %q, %v", got, ok)
	}
}

func TestSendBufferAppendZero(t *testing.T) {
	var b sendBuffer
	b.AppendZero(3 * zeroPageSize / 2)
	if b.Len() != int64(3*zeroPageSize/2) {
		t.Fatalf("Len = %d", b.Len())
	}
	got, ok := b.Slice(int64(zeroPageSize)-10, 20)
	if !ok || len(got) != 20 {
		t.Fatalf("zero slice across pages: %d bytes, %v", len(got), ok)
	}
	for _, by := range got {
		if by != 0 {
			t.Fatal("zero buffer contains nonzero byte")
		}
	}
}

// TestSendBufferReusesChunkArray: a connection appends and releases
// chunks for its whole life with a bounded unacknowledged window in
// between, so released slots must be reused. Once warm, the cycle
// allocates nothing and the chunk array stays within a few windows.
func TestSendBufferReusesChunkArray(t *testing.T) {
	var b sendBuffer
	data := []byte("0123456789")
	const window = 40 // unacknowledged chunks
	step := func() {
		b.Append(data)
		// Acknowledge to mid-chunk, so releases are partial too.
		if acked := b.Len() - window*int64(len(data)) - 5; acked > b.start {
			b.Release(acked)
		}
	}
	for range 10_000 {
		step()
	}
	cycle := func() {
		for range 1000 {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("1000 steady Append/Release steps allocate %v times; the chunk array keeps growing", allocs)
	}
	if c := cap(b.chunks); c > 4*window {
		t.Fatalf("chunk array capacity %d for a window of %d chunks", c, window)
	}
	got, ok := b.Slice(b.start, 2*len(data))
	if want := "56789" + "0123456789" + "01234"; !ok || string(got) != want {
		t.Fatalf("Slice at the acknowledged offset = %q, %v; want %q", got, ok, want)
	}
}

func TestRecvBufferReadDiscardPeek(t *testing.T) {
	var b recvBuffer
	b.Push([]byte("one"))
	b.Push([]byte("two"))
	b.Push(zeroPage[:4])
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	peek := make([]byte, 4)
	if n := b.Peek(peek); n != 4 || string(peek) != "onet" {
		t.Fatalf("Peek = %q (%d)", peek[:n], n)
	}
	if b.Len() != 10 {
		t.Fatal("Peek must not consume")
	}
	p := make([]byte, 5)
	if n := b.Read(p); n != 5 || string(p) != "onetw" {
		t.Fatalf("Read = %q (%d)", p[:n], n)
	}
	if got := b.Discard(100); got != 5 {
		t.Fatalf("Discard = %d, want 5", got)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after drain = %d", b.Len())
	}
	if b.Discard(10) != 0 {
		t.Fatal("Discard on empty must return 0")
	}
}

// Property: interleaved Append/Slice behaves like one flat []byte.
func TestPropertySendBufferMatchesFlat(t *testing.T) {
	f := func(chunks [][]byte, offs []uint16) bool {
		var b sendBuffer
		var flat []byte
		for _, ch := range chunks {
			if len(ch) == 0 {
				continue
			}
			cp := append([]byte(nil), ch...)
			b.Append(cp)
			flat = append(flat, cp...)
		}
		for _, o := range offs {
			if len(flat) == 0 {
				return true
			}
			off := int(o) % len(flat)
			n := int(o)%37 + 1
			got, ok := b.Slice(int64(off), n)
			if !ok {
				return false
			}
			want := flat[off:]
			if len(want) > n {
				want = want[:n]
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: recvBuffer Read returns exactly what was pushed, in order.
func TestPropertyRecvBufferFIFO(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var b recvBuffer
		var flat []byte
		for _, ch := range chunks {
			cp := append([]byte(nil), ch...)
			b.Push(cp)
			flat = append(flat, cp...)
		}
		out := make([]byte, len(flat))
		got := 0
		for got < len(flat) {
			n := b.Read(out[got:min(got+7, len(out))])
			if n == 0 {
				return false
			}
			got += n
		}
		return bytes.Equal(out, flat) && b.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecvBufferCompactsUnderBacklog: a connection that never fully
// drains (fast sender, slow reader) must not grow a dead-slot prefix —
// the chunk array stays proportional to the live backlog.
func TestRecvBufferCompactsUnderBacklog(t *testing.T) {
	var b recvBuffer
	payload := make([]byte, 1000)
	for i := 0; i < 50000; i++ {
		b.Push(payload)
		if i%2 == 1 {
			b.Discard(1500) // consume less than was pushed: backlog grows
		}
	}
	live := len(b.chunks) - b.head
	if cap(b.chunks) > 4*live+64 {
		t.Fatalf("chunk array cap %d for %d live chunks: dead prefix not compacted", cap(b.chunks), live)
	}
	// FIFO integrity survives compaction.
	if b.Len() != 50000*1000-25000*1500 {
		t.Fatalf("buffered = %d", b.Len())
	}
}
