package packet

// Pool is a slab-backed free list of Segment structs for one
// single-threaded simulation. Streaming captures observe segments
// synchronously at the tap, so once a segment has been delivered
// nothing references the struct any more and it can be reused instead
// of burdening the GC — segments are the dominant per-packet
// allocation of a session.
//
// Fresh segments are carved from chunked slabs (poolChunk structs per
// allocation) rather than allocated one struct at a time: a fleet cell
// touches a few hundred segments at steady state, and slab carving
// both amortizes the allocator round-trips and keeps the structs
// contiguous, so the free list cycles through a handful of cache
// lines. The zero Pool is ready to use.
//
// Only the struct is recycled: payload byte slices keep their backing
// arrays, so receive buffers and reassemblers may alias Payload freely.
// A Pool is not safe for concurrent use; every simulation owns its own
// (each session.World holds one, which all its hosts share).
type Pool struct {
	free  []*Segment
	slabs [][]Segment // every slab ever allocated, retained for Reset
	cur   int         // slab Get carves from
	off   int         // next uncarved index in slabs[cur]
}

// poolChunk is how many Segments one slab allocation carves into.
// 256 × ~72 B ≈ 18 KB per slab — two or three slabs cover a cell.
const poolChunk = 256

// Get returns a zeroed segment, reusing a recycled one when available
// and carving from the current slab otherwise.
func (p *Pool) Get() *Segment {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		*s = Segment{}
		return s
	}
	if p.cur == len(p.slabs) {
		p.slabs = append(p.slabs, make([]Segment, poolChunk))
	}
	s := &p.slabs[p.cur][p.off]
	if p.off++; p.off == poolChunk {
		p.cur++
		p.off = 0
	}
	*s = Segment{}
	return s
}

// Put recycles a segment. The caller must guarantee that no reference
// to the struct survives. Capture sinks never hold one past the tap (a
// recording keeps a copy), so pooling does not depend on which sinks a
// session attaches.
func (p *Pool) Put(s *Segment) {
	if s == nil {
		return
	}
	p.free = append(p.free, s)
}

// Reset reclaims every segment the pool has ever handed out, keeping
// the slabs for reuse. Segments still referenced at reset time (e.g.
// parked in an abandoned reassembly queue) are reclaimed wholesale —
// the whole simulation that held them must be over. The free list is
// dropped rather than kept: every slab slot is carveable again, so
// keeping recycled pointers would hand out the same struct twice.
func (p *Pool) Reset() {
	p.free = p.free[:0]
	p.cur = 0
	p.off = 0
}
