package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// A lane is a registered Task that keeps its own pending records,
// sorted by (at, seq), and tells the scheduler only where its earliest
// record — its head — lies. The loop merges the lane heads with the
// event queue: when a head orders before every queued event and every
// other head, the loop sets the clock and EventSeq to that head and
// calls the lane's RunTask, which must retire exactly that one record
// and report the lane's new head (SetLaneHead) or that it is empty
// (ClearLaneHead) before it returns.
//
// A lane reserves each record's seq (ReserveSeq) where a
// one-event-per-record scheme would have scheduled that record's event,
// so records interleave with events, with each other and across lanes
// exactly as those events would have fired, while a record never enters
// the event queue. netem.Link is the canonical lane: its in-flight
// packets are its records, and each hop is one retire.

// Lane identifies a registered lane; RunTask receives it as its op.
type Lane int32

// The lane heads are merged by a winner tree over every registered
// lane. ltree holds 2m laneNodes for a power of two m >= the lane
// count: leaf m+l is lane l's head, and each inner node i holds a copy
// of the earlier of its children 2i and 2i+1, so ltree[1] is the
// earliest head of all. A lane with no records, and each padding leaf,
// holds emptyHead, which orders after every real record. Changing one
// head writes its leaf and replays the leaf-to-root path: each level
// compares the value just computed with its sibling alone, without a
// branch, and writes the earlier one to the parent.

// laneNode is one node of the lane tree: the head (at, seq) of lane.
type laneNode struct {
	at   time.Duration
	seq  uint64
	lane Lane
}

var emptyHead = laneNode{at: math.MaxInt64, seq: math.MaxUint64}

// AddLane registers task as a lane with no records and returns its id.
// Registrations last for the scheduler's lifetime, across Reset.
func (s *Scheduler) AddLane(task Task) Lane {
	l := Lane(len(s.lanes))
	s.lanes = append(s.lanes, task)
	if m := len(s.ltree) / 2; len(s.lanes) > m {
		// Double the leaves: the old ones, heads included, then padding.
		t := make([]laneNode, 4*m)
		copy(t[2*m:], s.ltree[m:])
		for i := 3 * m; i < len(t); i++ {
			t[i] = emptyHead
		}
		for i := 2*m - 1; i > 0; i-- {
			t[i] = earlierNode(t[2*i], t[2*i+1])
		}
		s.ltree = t
	}
	return l
}

// earlierNode returns whichever of a and b holds the earlier head, a
// when they tie. It compares (at, seq) as one 128-bit number by a
// borrow chain, which orders the keys as signed times would because
// no head lies before time zero (SetLaneHead rejects one before now),
// and turns the borrow into a mask, so it takes no branch.
func earlierNode(a, b laneNode) laneNode {
	_, borrow := bits.Sub64(b.seq, a.seq, 0)
	_, borrow = bits.Sub64(uint64(b.at), uint64(a.at), borrow)
	mask := -borrow // all ones when b is earlier
	a.at ^= (a.at ^ b.at) & time.Duration(mask)
	a.seq ^= (a.seq ^ b.seq) & mask
	a.lane ^= (a.lane ^ b.lane) & Lane(mask)
	return a
}

// SetLaneHead reports that lane l's earliest record now lies at
// (at, seq), where seq came from ReserveSeq. A head in the past panics,
// like scheduling an event there.
func (s *Scheduler) SetLaneHead(l Lane, at time.Duration, seq uint64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: lane head at %v before now %v", at, s.now))
	}
	i := len(s.ltree)/2 + int(l)
	if s.ltree[i] == emptyHead {
		s.lbusy++
	}
	s.replay(i, laneNode{at: at, seq: seq, lane: l})
}

// ClearLaneHead reports that lane l holds no records. Clearing an empty
// lane is a no-op.
func (s *Scheduler) ClearLaneHead(l Lane) {
	i := len(s.ltree)/2 + int(l)
	if s.ltree[i] == emptyHead {
		return
	}
	s.lbusy--
	s.replay(i, emptyHead)
}

// replay writes head to leaf i and recomputes every node on its path to
// the root. Each node's other child is untouched, so one comparison per
// level, against the sibling, gives the parent.
func (s *Scheduler) replay(i int, head laneNode) {
	t := s.ltree
	t[i] = head
	for ; i > 1; i >>= 1 {
		head = earlierNode(head, t[i^1])
		t[i>>1] = head
	}
}

// dueBy reports whether a live event or a lane head at or before
// deadline is pending.
func (s *Scheduler) dueBy(deadline time.Duration) bool {
	_, at, ok := s.next()
	return ok && at <= deadline
}
