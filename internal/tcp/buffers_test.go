package tcp

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
)

func TestSendBufferSliceWithinChunk(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("hello world"))
	got, n, ok := b.Slice(6, 5)
	if !ok || string(got) != "world" || n != 5 {
		t.Fatalf("Slice(6,5) = %q, %d, %v", got, n, ok)
	}
}

func TestSendBufferSliceSpansChunks(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abc"))
	b.Append([]byte("def"))
	b.Append([]byte("ghi"))
	got, n, ok := b.Slice(1, 7)
	if !ok || string(got) != "bcdefgh" || n != 7 {
		t.Fatalf("spanning slice = %q, %d, %v", got, n, ok)
	}
}

func TestSendBufferSliceClampsAtEnd(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abcdef"))
	got, n, ok := b.Slice(4, 100)
	if !ok || string(got) != "ef" || n != 2 {
		t.Fatalf("clamped slice = %q, %d, %v", got, n, ok)
	}
}

func TestSendBufferRelease(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("abc"))
	b.Append([]byte("def"))
	b.Release(3)
	if _, _, ok := b.Slice(0, 3); ok {
		t.Fatal("released range must not be sliceable")
	}
	got, _, ok := b.Slice(3, 3)
	if !ok || string(got) != "def" {
		t.Fatalf("post-release slice = %q, %v", got, ok)
	}
	// Partial-chunk release keeps the chunk.
	b.Release(4)
	got, _, ok = b.Slice(4, 2)
	if !ok || string(got) != "ef" {
		t.Fatalf("partial-release slice = %q, %v", got, ok)
	}
}

// TestSendBufferAppendZero: zeros are a run length. Consecutive zero
// writes extend one chunk, and a slice returns only the bytes up to
// the end of the last write in its range; the rest is its length.
func TestSendBufferAppendZero(t *testing.T) {
	var b sendBuffer
	b.Append([]byte("hdr"))
	b.AppendZero(100)
	b.AppendZero(50)
	b.Append([]byte("x"))
	b.AppendZero(10)
	if b.Len() != 164 {
		t.Fatalf("Len = %d, want 164", b.Len())
	}
	if live := len(b.chunks) - b.head; live != 4 {
		t.Fatalf("%d live chunks, want 4: consecutive zero writes must share one run", live)
	}
	for _, tc := range []struct {
		off   int64
		n     int
		known string
		len   int
	}{
		{5, 20, "", 20},                // inside the run
		{1, 10, "dr", 10},              // a write, then zeros
		{150, 10, "\x00\x00\x00x", 10}, // zeros, a write, zeros
		{154, 100, "", 10},             // the tail run, clamped at the end
	} {
		got, n, ok := b.Slice(tc.off, tc.n)
		if !ok || string(got) != tc.known || n != tc.len {
			t.Errorf("Slice(%d, %d) = %q, %d, %v; want %q, %d", tc.off, tc.n, got, n, ok, tc.known, tc.len)
		}
	}
	if got, _, _ := b.Slice(5, 20); got != nil {
		t.Errorf("a slice inside a zero run carries bytes: %v", got)
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
	got, _, ok := b.Slice(b.start, 2*len(data))
	if want := "56789" + "0123456789" + "01234"; !ok || string(got) != want {
		t.Fatalf("Slice at the acknowledged offset = %q, %v; want %q", got, ok, want)
	}
}

func TestRecvBufferReadDiscardPeek(t *testing.T) {
	var b recvBuffer
	b.Push([]byte("one"))
	b.Push([]byte("two"))
	b.PushZero(3)
	b.PushZero(1)
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

// expand returns the bytes a Slice result stands for: its known bytes
// followed by zeros up to its length.
func expand(known []byte, length int) []byte {
	return append(append([]byte(nil), known...), make([]byte, length-len(known))...)
}

// Property: interleaved Append/AppendZero/Slice behaves like one flat
// []byte, also above a moving acknowledged offset. A slice's known
// bytes end exactly at the last byte of an Append in its range (nil
// when the range holds none), and the known bytes followed by zeros up
// to its length equal the flat range.
func TestPropertySendBufferMatchesFlat(t *testing.T) {
	f := func(chunks [][]byte, zeros []uint16, offs []uint16) bool {
		var b sendBuffer
		var flat []byte
		var written []bool // whether flat[i] came from Append
		for i, ch := range chunks {
			if i < len(zeros) {
				// Two zero writes in a row extend one run.
				z := int(zeros[i] % 600)
				b.AppendZero(z / 2)
				b.AppendZero(z - z/2)
				flat = append(flat, make([]byte, z)...)
				written = append(written, make([]bool, z)...)
			}
			if len(ch) == 0 {
				continue
			}
			cp := append([]byte(nil), ch...)
			b.Append(cp)
			flat = append(flat, cp...)
			for range cp {
				written = append(written, true)
			}
		}
		if b.Len() != int64(len(flat)) {
			return false
		}
		acked := 0 // released below this offset
		for _, o := range offs {
			if acked == len(flat) {
				return true
			}
			off := acked + int(o)%(len(flat)-acked)
			if o%4 == 0 {
				// Acknowledge up to off; the rest must still slice.
				b.Release(int64(off))
				acked = off
			}
			n := int(o)%1500 + 1
			got, length, ok := b.Slice(int64(off), n)
			if !ok {
				return false
			}
			end := min(off+n, len(flat))
			knownEnd := off
			for i := off; i < end; i++ {
				if written[i] {
					knownEnd = i + 1
				}
			}
			if length != end-off || len(got) != knownEnd-off || (knownEnd == off && got != nil) {
				return false
			}
			if !bytes.Equal(expand(got, length), flat[off:end]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: recvBuffer returns exactly what was pushed, in order, with
// zero runs mixed among the pushed bytes: Peek sees what the next Read
// returns, and Discard skips the same bytes a Read would.
func TestPropertyRecvBufferFIFO(t *testing.T) {
	f := func(chunks [][]byte, zeros []uint16) bool {
		var b recvBuffer
		var flat []byte
		for i, ch := range chunks {
			if i < len(zeros) {
				z := int(zeros[i] % 600)
				b.PushZero(z / 2)
				b.PushZero(z - z/2)
				flat = append(flat, make([]byte, z)...)
			}
			cp := append([]byte(nil), ch...)
			b.Push(cp)
			flat = append(flat, cp...)
		}
		if b.Len() != len(flat) {
			return false
		}
		peek := make([]byte, 7)
		for step := 0; len(flat) > 0; step++ {
			want := flat[:min(7, len(flat))]
			if step%3 == 2 {
				if b.Discard(len(want)) != len(want) {
					return false
				}
			} else {
				if n := b.Peek(peek); n != len(want) || !bytes.Equal(peek[:n], want) {
					return false
				}
				p := make([]byte, len(want))
				if b.Read(p) != len(p) || !bytes.Equal(p, want) {
					return false
				}
			}
			flat = flat[len(want):]
			if b.Len() != len(flat) {
				return false
			}
		}
		return b.Len() == 0 && b.Read(peek) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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

// TestZeroBodyIsOneRun: a media body is a length on both ends of a
// connection. A 91.9 MB body written in 351 pieces of 256 KB holds one
// live send-buffer chunk, and 10 MB of it received but not yet read
// holds one receive-buffer chunk, not one per segment.
func TestZeroBodyIsOneRun(t *testing.T) {
	p := newPair(5, netem.Profile{Name: "fast", Down: 100 * netem.Mbps, Up: 100 * netem.Mbps, RTT: 20 * time.Millisecond})
	sendChunks := -1
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() {
			for range 351 {
				c.WriteZero(256 << 10)
			}
			sendChunks = len(c.sndBuf.chunks) - c.sndBuf.head
		}})
	})
	const unread = 10 << 20
	c := p.client.Dial(Config{RecvBuf: unread}, packet.EP(203, 0, 113, 10, 80))
	p.sch.RunUntil(5 * time.Second) // the client never reads
	if sendChunks != 1 {
		t.Errorf("the body holds %d live send-buffer chunks, want 1", sendChunks)
	}
	if c.Buffered() != unread {
		t.Fatalf("client holds %d unread bytes, want %d", c.Buffered(), unread)
	}
	if live := len(c.rcvBuf.chunks) - c.rcvBuf.head; live != 1 {
		t.Errorf("%d unread bytes hold %d receive-buffer chunks, want 1", unread, live)
	}
}
