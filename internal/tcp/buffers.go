package tcp

import "repro/internal/packet"

// Byte buffers shared by sender and receiver sides. Bulk media bytes
// are zeros, and a run of zeros travels as a length: a chunk with nil
// data stands for that many zero bytes, WriteZero extends the tail run,
// and a segment cut from inside a run carries no payload bytes, only
// its length (packet.Segment's PayloadLen form; the wire serializer
// zero-fills it). A whole simulated video body costs one chunk slot on
// the sender and one on the receiver, whatever its size.

// sendBuffer stores the outgoing byte stream indexed by absolute
// stream offset so retransmissions can re-slice any unacknowledged
// range. Chunks below the acknowledged offset are released by index,
// and their slots are reclaimed the way recvBuffer reclaims consumed
// ones, so the chunk array is reused for the connection's whole life
// (and across lives, when its host recycles the conn) instead of
// growing behind a marching front.
type sendBuffer struct {
	chunks []sendChunk
	head   int   // index of the first unreleased chunk
	start  int64 // acknowledged offset: bytes below it are released
	end    int64 // stream offset one past the last byte
}

// sendChunk is one application write starting at stream offset off,
// or a run of zeros when data is nil. Chunks are contiguous, so a
// chunk ends where the next one starts, or at the end of the stream.
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
	b.push(data)
	b.end += int64(len(data))
}

// AppendZero adds n zero bytes. A zero run at the tail simply grows:
// it ends at the end of the stream.
func (b *sendBuffer) AppendZero(n int) {
	if n <= 0 {
		return
	}
	if t := len(b.chunks) - 1; t < b.head || b.chunks[t].data != nil {
		b.push(nil)
	}
	b.end += int64(n)
}

// push starts a chunk at the end of the stream.
func (b *sendBuffer) push(data []byte) {
	if b.head > 0 && b.head*2 >= len(b.chunks) {
		// At least half the slots are released: compact the live tail
		// to the front and reuse the array. Amortized O(1), as in
		// recvBuffer.push.
		n := copy(b.chunks, b.chunks[b.head:])
		clear(b.chunks[n:])
		b.chunks = b.chunks[:n]
		b.head = 0
	}
	b.chunks = append(b.chunks, sendChunk{off: b.end, data: data})
}

// chunkEnd returns the stream offset one past chunk i.
func (b *sendBuffer) chunkEnd(i int) int64 {
	if i+1 < len(b.chunks) {
		return b.chunks[i+1].off
	}
	return b.end
}

// Release drops storage for bytes below offset off (they were acked).
func (b *sendBuffer) Release(off int64) {
	for b.head < len(b.chunks) && b.chunkEnd(b.head) <= off {
		b.chunks[b.head] = sendChunk{}
		b.head++
	}
	b.start = off
}

// Slice returns the range of up to n bytes starting at absolute offset
// off as its length and its known bytes: every byte from off up to the
// end of the last application write in the range. The rest of the
// range is zeros, so a range inside a zero run has no known bytes. The
// known bytes alias buffer storage when one chunk holds them (the
// common case) and are copied when they span chunks. ok is false when
// off is out of range.
func (b *sendBuffer) Slice(off int64, n int) (known []byte, length int, ok bool) {
	if off < b.start || off >= b.end || n <= 0 {
		return nil, 0, false
	}
	end := min(off+int64(n), b.end)
	// Binary search for the chunk holding off: the last one starting
	// at or before it.
	lo, hi := b.head, len(b.chunks)
	for lo < hi {
		if mid := (lo + hi) / 2; b.chunks[mid].off <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first, last := lo-1, -1 // last: the last chunk in range that holds bytes
	for i := first; i < len(b.chunks) && b.chunks[i].off < end; i++ {
		if b.chunks[i].data != nil {
			last = i
		}
	}
	length = int(end - off)
	if last < 0 {
		return nil, length, true
	}
	lc := b.chunks[last]
	knownEnd := min(end, b.chunkEnd(last))
	if last == first {
		return lc.data[off-lc.off : knownEnd-lc.off], length, true
	}
	known = make([]byte, knownEnd-off)
	for i := first; i <= last; i++ {
		if c := b.chunks[i]; c.data != nil {
			from := max(off, c.off)
			copy(known[from-off:], c.data[from-c.off:])
		}
	}
	return known, length, true
}

// oooQueue holds out-of-order segments keyed by stream offset, sorted
// ascending, from index head on. A reassembly queue holds one loss
// event's flight: a few entries in congestion avoidance, hundreds after
// a slow-start overshoot. A sorted slice with binary search replaces
// the per-connection map: inserts reuse the backing array across the
// connection's whole life, and across the lives of a recycled conn,
// instead of growing bucket chains, which removes the second-largest
// allocation of a fleet run.
//
// Only entries at or above the receive point are stored. An entry the
// receive point has passed without landing on it (a partial accept, or
// a retransmission cut on other segment boundaries) can never be taken,
// so take purges it: its segment goes back to the host's pool and dead
// counts it. len still counts dead entries, so the reassembly cap
// refuses exactly what it would if they were kept.
type oooQueue struct {
	entries []oooEntry
	head    int // index of the first stored entry
	dead    int // entries purged below the receive point
}

type oooEntry struct {
	off int64
	seg *packet.Segment
}

// oooCap bounds the reassembly queue: an out-of-order segment that
// finds len() at the cap is dropped.
const oooCap = 4096

func (q *oooQueue) len() int { return len(q.entries) - q.head + q.dead }

// search returns the index of the first stored entry with offset >= off.
func (q *oooQueue) search(off int64) int {
	lo, hi := q.head, len(q.entries)
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

// put inserts seg at off, which lies above the receive point. An entry
// already stored at off is replaced (the map semantics it replaces), and
// its segment goes back to h's pool.
func (q *oooQueue) put(off int64, seg *packet.Segment, h *Host) {
	i := q.search(off)
	if i < len(q.entries) && q.entries[i].off == off {
		h.putSeg(q.entries[i].seg)
		q.entries[i].seg = seg
		return
	}
	if q.head > 0 && q.head*2 >= len(q.entries) {
		// At least half the slots are taken or purged: compact the
		// stored tail to the front and reuse the array, as
		// recvBuffer.Push does.
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries = q.entries[:n]
		i -= q.head
		q.head = 0
	}
	q.entries = append(q.entries, oooEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = oooEntry{off: off, seg: seg}
}

// take purges every stored entry below off, the receive point, into h's
// pool, then removes and returns the entry at exactly off, which can
// only be the first one left.
func (q *oooQueue) take(off int64, h *Host) (*packet.Segment, bool) {
	for q.head < len(q.entries) && q.entries[q.head].off < off {
		h.putSeg(q.entries[q.head].seg)
		q.entries[q.head] = oooEntry{}
		q.head++
		q.dead++
	}
	if q.head == len(q.entries) || q.entries[q.head].off != off {
		return nil, false
	}
	seg := q.entries[q.head].seg
	q.entries[q.head] = oooEntry{}
	q.head++
	return seg, true
}

// recvBuffer stores in-order received bytes until the application
// reads them. Capacity is enforced by the advertised window, not here.
// Consumed chunk slots are reclaimed by index so the backing array is
// reused across the whole connection instead of growing behind a
// marching front (a long session pushes a header and a zero run per
// response through here).
type recvBuffer struct {
	chunks   []recvChunk
	head     int // index of the first unconsumed chunk
	headOff  int // bytes of chunks[head] already consumed
	buffered int
}

// recvChunk is n received bytes, zeros when data is nil.
type recvChunk struct {
	data []byte
	n    int
}

// Len returns the number of readable bytes.
func (b *recvBuffer) Len() int { return b.buffered }

// Push appends received payload (aliased, not copied).
func (b *recvBuffer) Push(data []byte) {
	if len(data) > 0 {
		b.push(recvChunk{data: data, n: len(data)})
	}
}

// PushZero appends n zero bytes, extending the tail chunk when it is
// already a zero run.
func (b *recvBuffer) PushZero(n int) {
	if n <= 0 {
		return
	}
	if t := len(b.chunks) - 1; t >= b.head && b.chunks[t].data == nil {
		b.chunks[t].n += n
		b.buffered += n
		return
	}
	b.push(recvChunk{n: n})
}

func (b *recvBuffer) push(c recvChunk) {
	if b.head > 0 && b.head*2 >= len(b.chunks) {
		// At least half the slots are consumed: compact the live tail
		// to the front and reuse the array. Amortized O(1) — each
		// compaction copies fewer slots than were consumed since the
		// last one — and it keeps a permanently backlogged connection
		// (slow reader, fast sender) from growing a dead-slot prefix.
		n := copy(b.chunks, b.chunks[b.head:])
		clear(b.chunks[n:])
		b.chunks = b.chunks[:n]
		b.head = 0
	}
	b.chunks = append(b.chunks, c)
	b.buffered += c.n
}

// consume advances the read point by up to n bytes, copying them into
// p when p is not nil, and returns the count consumed.
func (b *recvBuffer) consume(p []byte, n int) int {
	done := 0
	for done < n && b.head < len(b.chunks) {
		c := b.chunks[b.head]
		take := min(c.n-b.headOff, n-done)
		if p != nil {
			fill(p[done:done+take], c.data, b.headOff)
		}
		b.headOff += take
		done += take
		if b.headOff == c.n {
			b.chunks[b.head] = recvChunk{}
			b.head++
			b.headOff = 0
		}
	}
	b.buffered -= done
	return done
}

// fill copies data[from:] into p, or zeros when data is nil (a zero run).
func fill(p, data []byte, from int) {
	if data == nil {
		clear(p)
	} else {
		copy(p, data[from:])
	}
}

// Discard consumes up to n bytes without materializing them, returning
// the number consumed. Players use this for bulk media bytes.
func (b *recvBuffer) Discard(n int) int { return b.consume(nil, n) }

// Read copies up to len(p) bytes into p. HTTP header parsing uses this.
func (b *recvBuffer) Read(p []byte) int { return b.consume(p, len(p)) }

// Peek copies up to len(p) bytes without consuming them.
func (b *recvBuffer) Peek(p []byte) int {
	read := 0
	off := b.headOff
	for i := b.head; read < len(p) && i < len(b.chunks); i++ {
		c := b.chunks[i]
		take := min(c.n-off, len(p)-read)
		fill(p[read:read+take], c.data, off)
		read += take
		off = 0
	}
	return read
}
