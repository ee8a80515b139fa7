package tcp

import "repro/internal/packet"

// Byte buffers shared by sender and receiver sides. Bulk media bytes
// are zero-filled: WriteZero appends windows onto a shared read-only
// zero page, so a 200 MB simulated video costs a few dozen slice
// headers rather than 200 MB of heap.

const zeroPageSize = 256 << 10

var zeroPage = make([]byte, zeroPageSize)

// sendBuffer stores the outgoing byte stream indexed by absolute
// stream offset so retransmissions can re-slice any unacknowledged
// range. Chunks below the acknowledged offset are released by index,
// and their slots are reclaimed the way recvBuffer reclaims consumed
// ones, so the chunk array is reused for the connection's whole life
// (and across lives, through ConnPool) instead of growing behind a
// marching front.
type sendBuffer struct {
	chunks []sendChunk
	head   int   // index of the first unreleased chunk
	start  int64 // acknowledged offset: bytes below it are released
	end    int64 // stream offset one past the last byte
}

type sendChunk struct {
	off  int64
	data []byte
}

// Len returns the total stream length appended so far.
func (b *sendBuffer) Len() int64 { return b.end }

// Unsent returns bytes at or beyond offset off.
func (b *sendBuffer) Unsent(off int64) int64 { return b.end - off }

// Append adds data (not copied; callers must not mutate it).
func (b *sendBuffer) Append(data []byte) {
	if len(data) == 0 {
		return
	}
	if b.head > 0 && b.head*2 >= len(b.chunks) {
		// At least half the slots are released: compact the live tail
		// to the front and reuse the array. Amortized O(1), as in
		// recvBuffer.Push.
		n := copy(b.chunks, b.chunks[b.head:])
		clear(b.chunks[n:])
		b.chunks = b.chunks[:n]
		b.head = 0
	}
	b.chunks = append(b.chunks, sendChunk{off: b.end, data: data})
	b.end += int64(len(data))
}

// AppendZero adds n zero bytes backed by the shared zero page.
func (b *sendBuffer) AppendZero(n int) {
	for n > 0 {
		take := n
		if take > zeroPageSize {
			take = zeroPageSize
		}
		b.Append(zeroPage[:take])
		n -= take
	}
}

// Release drops storage for bytes below offset off (they were acked).
func (b *sendBuffer) Release(off int64) {
	for b.head < len(b.chunks) && b.chunks[b.head].off+int64(len(b.chunks[b.head].data)) <= off {
		b.chunks[b.head] = sendChunk{}
		b.head++
	}
	b.start = off
}

// Slice returns up to n bytes starting at absolute offset off. The
// returned slice aliases buffer storage when the range lies in one
// chunk (the common case) and is copied when it spans chunks. ok is
// false when off is out of range.
func (b *sendBuffer) Slice(off int64, n int) ([]byte, bool) {
	if off < b.start || off >= b.end || n <= 0 {
		return nil, false
	}
	if avail := b.end - off; int64(n) > avail {
		n = int(avail)
	}
	// Binary search for the chunk containing off.
	lo, hi := b.head, len(b.chunks)
	for lo < hi {
		mid := (lo + hi) / 2
		c := b.chunks[mid]
		if off < c.off {
			hi = mid
		} else if off >= c.off+int64(len(c.data)) {
			lo = mid + 1
		} else {
			lo = mid
			break
		}
	}
	c := b.chunks[lo]
	rel := int(off - c.off)
	if rel+n <= len(c.data) {
		return c.data[rel : rel+n], true
	}
	// Spans chunks. Bulk media spans zero-page chunks on both sides:
	// the copy would be all zeros, so alias the shared zero page
	// instead of allocating one (the dominant allocation of a fleet
	// run otherwise).
	if n <= zeroPageSize {
		zero := true
		for i := lo; i < len(b.chunks) && b.chunks[i].off < off+int64(n); i++ {
			if d := b.chunks[i].data; len(d) == 0 || &d[0] != &zeroPage[0] {
				zero = false
				break
			}
		}
		if zero {
			return zeroPage[:n], true
		}
	}
	out := make([]byte, 0, n)
	out = append(out, c.data[rel:]...)
	for i := lo + 1; i < len(b.chunks) && len(out) < n; i++ {
		take := min(n-len(out), len(b.chunks[i].data))
		out = append(out, b.chunks[i].data[:take]...)
	}
	return out, true
}

// oooQueue holds out-of-order segments keyed by stream offset, sorted
// ascending. A reassembly queue is almost always a handful of entries
// (one loss event's flight), so a sorted slice with binary search
// replaces the per-connection map: inserts reuse the backing array
// across the connection's whole life instead of growing bucket chains,
// which removes the second-largest allocation of a fleet run.
type oooQueue struct {
	entries []oooEntry
}

type oooEntry struct {
	off int64
	seg *packet.Segment
}

func (q *oooQueue) len() int { return len(q.entries) }

// search returns the index of the first entry with offset >= off.
func (q *oooQueue) search(off int64) int {
	lo, hi := 0, len(q.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if q.entries[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// put inserts seg at off, replacing any existing entry at the same
// offset (matching the map semantics it replaces).
func (q *oooQueue) put(off int64, seg *packet.Segment) {
	i := q.search(off)
	if i < len(q.entries) && q.entries[i].off == off {
		q.entries[i].seg = seg
		return
	}
	q.entries = append(q.entries, oooEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = oooEntry{off: off, seg: seg}
}

// take removes and returns the entry at exactly off.
func (q *oooQueue) take(off int64) (*packet.Segment, bool) {
	i := q.search(off)
	if i >= len(q.entries) || q.entries[i].off != off {
		return nil, false
	}
	seg := q.entries[i].seg
	copy(q.entries[i:], q.entries[i+1:])
	q.entries[len(q.entries)-1] = oooEntry{}
	q.entries = q.entries[:len(q.entries)-1]
	return seg, true
}

// recvBuffer stores in-order received bytes until the application
// reads them. Capacity is enforced by the advertised window, not here.
// Consumed chunk slots are reclaimed by index so the backing array is
// reused across the whole connection instead of growing behind a
// marching front (a steady 180 s session pushes tens of thousands of
// chunks through here).
type recvBuffer struct {
	chunks   [][]byte
	head     int // index of the first unconsumed chunk
	headOff  int // bytes of chunks[head] already consumed
	buffered int
}

// Len returns the number of readable bytes.
func (b *recvBuffer) Len() int { return b.buffered }

// Push appends received payload (aliased, not copied).
func (b *recvBuffer) Push(data []byte) {
	if len(data) == 0 {
		return
	}
	if b.head > 0 && b.head*2 >= len(b.chunks) {
		// At least half the slots are consumed: compact the live tail
		// to the front and reuse the array. Amortized O(1) — each
		// compaction copies fewer slots than were consumed since the
		// last one — and it keeps a permanently backlogged connection
		// (slow reader, fast sender) from growing a dead-slot prefix.
		n := copy(b.chunks, b.chunks[b.head:])
		for i := n; i < len(b.chunks); i++ {
			b.chunks[i] = nil
		}
		b.chunks = b.chunks[:n]
		b.head = 0
	}
	b.chunks = append(b.chunks, data)
	b.buffered += len(data)
}

// Discard consumes up to n bytes without materializing them, returning
// the number consumed. Players use this for bulk media bytes.
func (b *recvBuffer) Discard(n int) int {
	consumed := 0
	for n > 0 && b.head < len(b.chunks) {
		head := b.chunks[b.head]
		avail := len(head) - b.headOff
		take := min(avail, n)
		b.headOff += take
		consumed += take
		n -= take
		if b.headOff == len(head) {
			b.chunks[b.head] = nil
			b.head++
			b.headOff = 0
		}
	}
	b.buffered -= consumed
	return consumed
}

// Read copies up to len(p) bytes into p. HTTP header parsing uses this.
func (b *recvBuffer) Read(p []byte) int {
	read := 0
	for read < len(p) && b.head < len(b.chunks) {
		head := b.chunks[b.head]
		n := copy(p[read:], head[b.headOff:])
		b.headOff += n
		read += n
		if b.headOff == len(head) {
			b.chunks[b.head] = nil
			b.head++
			b.headOff = 0
		}
	}
	b.buffered -= read
	return read
}

// Peek copies up to len(p) bytes without consuming them.
func (b *recvBuffer) Peek(p []byte) int {
	read := 0
	off := b.headOff
	for i := b.head; read < len(p) && i < len(b.chunks); i++ {
		head := b.chunks[i]
		n := copy(p[read:], head[off:])
		read += n
		off = 0
	}
	return read
}
