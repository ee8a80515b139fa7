package tcp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
)

// refOooQueue is the reassembly queue before it purged passed entries:
// one sorted slice that keeps every entry until the connection resets,
// takes by binary search over all of them and shifts the tail down. It
// is the specification oooQueue must match decision for decision.
type refOooQueue struct {
	entries []oooEntry
}

func (q *refOooQueue) len() int { return len(q.entries) }

func (q *refOooQueue) search(off int64) int {
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

func (q *refOooQueue) put(off int64, seg *packet.Segment) {
	i := q.search(off)
	if i < len(q.entries) && q.entries[i].off == off {
		q.entries[i].seg = seg
		return
	}
	q.entries = append(q.entries, oooEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = oooEntry{off: off, seg: seg}
}

func (q *refOooQueue) take(off int64) (*packet.Segment, bool) {
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

// oooTally counts what one equivalence run exercised.
type oooTally struct {
	puts, refused, hits, dead int
}

// runOooEquivalence drives oooQueue and refOooQueue through the put and
// take sequence that ops encodes, the way Conn.processData does: a
// receive point that only grows, puts only above it under the oooCap
// cap, and a drain of takes after each complete in-order segment. Each
// op is two bytes, a code and an argument. Segments sit on a grid of
// mss-byte slots that a regrid op shifts, so drains both land on stored
// entries and pass them, as retransmissions cut on other boundaries do.
//
// After every op the two must agree on len() and so on every refusal,
// every take must return the same segment, and the stored entries must
// be exactly the reference's entries at or above the last take point,
// with the ones below counted as dead.
func runOooEquivalence(t testing.TB, ops []byte) oooTally {
	const mss = 100
	var (
		q      oooQueue
		ref    refOooQueue
		h      = &Host{pool: &packet.Pool{}}
		rcvNxt int64
		taken  int64 // the last take point
		grid   int64 // origin of the segment grid
		tally  oooTally
	)
	firstSlot := func() int64 { // index of the first grid slot above rcvNxt
		return (rcvNxt-grid)/mss + 1
	}
	put := func(off int64) {
		full, refFull := q.len() >= oooCap, ref.len() >= oooCap
		if full != refFull {
			t.Fatalf("put %d: cap refuses %v, reference %v (len %d vs %d)", off, full, refFull, q.len(), ref.len())
		}
		if full {
			tally.refused++
			return
		}
		seg := &packet.Segment{PayloadLen: mss}
		q.put(off, seg, h)
		ref.put(off, seg)
		tally.puts++
	}
	drain := func() {
		for {
			got, ok := q.take(rcvNxt, h)
			want, refOK := ref.take(rcvNxt)
			taken = rcvNxt
			if got != want || ok != refOK {
				t.Fatalf("take %d = %p, %v; reference %p, %v", rcvNxt, got, ok, want, refOK)
			}
			if !ok {
				return
			}
			tally.hits++
			rcvNxt += int64(got.Len())
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		a := int64(ops[i+1])
		switch ops[i] % 6 {
		case 0: // one out-of-order segment a few slots ahead
			put(grid + (firstSlot()+a%64)*mss)
		case 1: // a flight behind a hole: up to 256 consecutive slots
			first := firstSlot() + 1
			for k := range a + 1 {
				put(grid + (first+k)*mss)
			}
		case 2: // a complete in-order segment up to a grid slot
			rcvNxt = grid + (firstSlot()+a%4)*mss
			drain()
		case 3: // a complete in-order segment cut off the grid
			rcvNxt += 1 + a*7
			drain()
		case 4: // a partial accept: the receive point moves, no drain
			rcvNxt += 1 + a
		case 5: // the sender re-cuts its segments on a new grid
			grid = rcvNxt - a%mss
		}
		if q.len() != ref.len() {
			t.Fatalf("op %d: len %d, reference %d", i/2, q.len(), ref.len())
		}
		below := ref.search(taken)
		if q.dead != below {
			t.Fatalf("op %d: %d dead, reference holds %d entries below the take point %d", i/2, q.dead, below, taken)
		}
		stored := q.entries[q.head:]
		if len(stored) != len(ref.entries)-below {
			t.Fatalf("op %d: %d stored, reference holds %d at or above %d", i/2, len(stored), len(ref.entries)-below, taken)
		}
		for j, e := range stored {
			if e != ref.entries[below+j] {
				t.Fatalf("op %d: stored entry %d is %+v, reference %+v", i/2, j, e, ref.entries[below+j])
			}
		}
	}
	tally.dead = q.dead
	return tally
}

// TestOooQueueMatchesSortedSlice: over random put and take sequences
// that reach the cap, purge passed entries and hit stored ones, the
// queue decides exactly what the sorted slice it replaces decided.
func TestOooQueueMatchesSortedSlice(t *testing.T) {
	var sum oooTally
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rng.Read(ops)
		tally := runOooEquivalence(t, ops)
		sum.puts += tally.puts
		sum.refused += tally.refused
		sum.hits += tally.hits
		sum.dead += tally.dead
	}
	if sum.puts == 0 || sum.refused == 0 || sum.hits == 0 || sum.dead == 0 {
		t.Fatalf("the sequences left a path unexercised: %+v", sum)
	}
}

// FuzzOooQueueEquivalence is TestOooQueueMatchesSortedSlice over
// fuzzer-chosen sequences.
func FuzzOooQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 0, 9, 4, 50, 2, 1})
	f.Add([]byte{1, 255, 5, 40, 3, 2, 2, 3, 0, 0, 2, 0})
	// Rounds of a 256-segment flight that 15 off-grid segments then
	// pass: the dead entries alone reach the cap, which then refuses puts.
	var full []byte
	for range 20 {
		full = append(full, 1, 255)
		for range 15 {
			full = append(full, 3, 255)
		}
	}
	full = append(full, 0, 0)
	f.Add(full)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runOooEquivalence(t, ops)
	})
}

// TestOooQueuePurgesPassedEntries creates dead entries in both ways a
// receive point can pass a held segment without landing on it, through
// Host.Deliver on an established conn with a segment pool: a partial
// accept into a full receive buffer, after which the sender resends on
// new boundaries, and a retransmission cut on other boundaries than the
// held segments. Each passed segment must be counted by len() and so by
// the cap, no longer stored, and back in the host's pool.
func TestOooQueuePurgesPassedEntries(t *testing.T) {
	// oooStep is one data segment delivered to the client; discard
	// frees the receive buffer after it.
	type oooStep struct {
		off, n  int64
		discard bool
	}
	for _, tc := range []struct {
		name    string
		recvBuf int
		steps   []oooStep
		dead    []int // step indices whose segments end dead
		stored  []int // step indices whose segments stay stored
		rcvNxt  int64
	}{
		{
			name:    "partial accept",
			recvBuf: 1000,
			steps: []oooStep{
				{0, 1500, false},    // accepted [0,1000): the buffer is full
				{1500, 1500, true},  // held; the reader then frees the buffer
				{1000, 1000, false}, // resent on new boundaries, passes 1500
			},
			dead:   []int{1},
			rcvNxt: 2000,
		},
		{
			name: "retransmission cut on other boundaries",
			steps: []oooStep{
				{1000, 1000, false}, // held
				{2000, 1000, false}, // held
				{0, 1500, false},    // re-cut: passes 1000, stops short of 2000
			},
			dead:   []int{0},
			stored: []int{1},
			rcvNxt: 1500,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(1, noLossProfile())
			segs := &packet.Pool{}
			p.client.SetSegmentPool(segs)
			p.server.Listen(80, Config{}, nil)
			c := p.client.Dial(Config{RecvBuf: tc.recvBuf}, testServerEP)
			p.sch.RunUntil(time.Second)
			if c.ConnState() != StateEstablished {
				t.Fatalf("handshake incomplete: %v", c.ConnState())
			}
			delivered := make([]*packet.Segment, len(tc.steps))
			for i, st := range tc.steps {
				delivered[i] = dataFrom(c, st.off, int(st.n), byte('a'+i))
				p.client.Deliver(delivered[i])
				if st.discard {
					c.Discard(c.Buffered())
				}
			}
			if c.rcvNxt != tc.rcvNxt {
				t.Fatalf("rcvNxt %d, want %d", c.rcvNxt, tc.rcvNxt)
			}
			if c.ooo.dead != len(tc.dead) || c.ooo.len() != len(tc.dead)+len(tc.stored) {
				t.Fatalf("len() %d with %d dead, want %d with %d dead", c.ooo.len(), c.ooo.dead, len(tc.dead)+len(tc.stored), len(tc.dead))
			}
			stored := c.ooo.entries[c.ooo.head:]
			if len(stored) != len(tc.stored) {
				t.Fatalf("%d entries stored, want %d", len(stored), len(tc.stored))
			}
			for j, i := range tc.stored {
				if stored[j].seg != delivered[i] || stored[j].off < c.rcvNxt {
					t.Fatalf("stored entry %d is %+v, want step %d's segment at or above %d", j, stored[j], i, c.rcvNxt)
				}
			}
			// The pool hands recycled segments out before carving new
			// ones, so every purged segment is among its next few.
			recycled := map[*packet.Segment]bool{}
			for range 8 {
				recycled[segs.Get()] = true
			}
			for _, i := range tc.dead {
				if !recycled[delivered[i]] {
					t.Fatalf("step %d's purged segment did not go back to the pool", i)
				}
			}
		})
	}
}

// TestOooQueueRecyclesReplacedSegment: a duplicate that lands on a
// stored offset replaces the held segment, which goes back to the pool,
// and the entry still counts once.
func TestOooQueueRecyclesReplacedSegment(t *testing.T) {
	segs := &packet.Pool{}
	h := &Host{pool: segs}
	var q oooQueue
	first, dup := &packet.Segment{PayloadLen: 100}, &packet.Segment{PayloadLen: 100}
	q.put(1000, first, h)
	q.put(1000, dup, h)
	if q.len() != 1 || q.entries[q.head].seg != dup {
		t.Fatalf("len() %d, stored %+v; want the duplicate stored once", q.len(), q.entries[q.head:])
	}
	if got := segs.Get(); got != first {
		t.Fatalf("the pool handed out %p, want the replaced segment %p", got, first)
	}
}
