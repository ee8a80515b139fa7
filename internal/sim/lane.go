package sim

import (
	"fmt"
	"math"
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

// laneKey is one lane's earliest record. An empty lane's key is noKey,
// which orders after every real record.
type laneKey struct {
	at  time.Duration
	seq uint64
}

var noKey = laneKey{at: math.MaxInt64, seq: math.MaxUint64}

func keyLess(a, b *laneKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The lane heads are merged by a winner tree over every registered
// lane. lkeys holds each lane's head, padded with noKey to m entries
// for a power of two m; ltree[m+l] is lane l, each inner node i holds
// the lane whose head is the earlier of its children 2i and 2i+1, and
// ltree[1] is the lane with the earliest head of all. Changing one
// head replays its leaf-to-root path, one comparison per level, and
// stops where another lane keeps winning.

// AddLane registers task as a lane with no records and returns its id.
// Registrations last for the scheduler's lifetime, across Reset.
func (s *Scheduler) AddLane(task Task) Lane {
	l := Lane(len(s.lanes))
	s.lanes = append(s.lanes, task)
	if m := len(s.lkeys); len(s.lanes) > m {
		m = max(2*m, 2)
		for len(s.lkeys) < m {
			s.lkeys = append(s.lkeys, noKey)
		}
		s.ltree = make([]Lane, 2*m)
		for i := range m {
			s.ltree[m+i] = Lane(i)
		}
		for i := m - 1; i > 0; i-- {
			s.ltree[i] = s.earlier(s.ltree[2*i], s.ltree[2*i+1])
		}
	}
	return l
}

// earlier returns whichever of lanes a and b has the earlier head.
func (s *Scheduler) earlier(a, b Lane) Lane {
	if keyLess(&s.lkeys[b], &s.lkeys[a]) {
		return b
	}
	return a
}

// SetLaneHead reports that lane l's earliest record now lies at
// (at, seq), where seq came from ReserveSeq. A head in the past panics,
// like scheduling an event there.
func (s *Scheduler) SetLaneHead(l Lane, at time.Duration, seq uint64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: lane head at %v before now %v", at, s.now))
	}
	if s.lkeys[l] == noKey {
		s.lbusy++
	}
	s.lkeys[l] = laneKey{at: at, seq: seq}
	s.replay(l)
}

// ClearLaneHead reports that lane l holds no records. Clearing an empty
// lane is a no-op.
func (s *Scheduler) ClearLaneHead(l Lane) {
	if s.lkeys[l] == noKey {
		return
	}
	s.lbusy--
	s.lkeys[l] = noKey
	s.replay(l)
}

// replay recomputes the winners on lane l's path to the root after its
// head changed.
func (s *Scheduler) replay(l Lane) {
	t := s.ltree
	for i := len(s.lkeys) + int(l); i > 1; {
		w := s.earlier(t[i&^1], t[i|1])
		i >>= 1
		if t[i] == w && w != l {
			return
		}
		t[i] = w
	}
}

// laneTop returns the earliest lane head; noKey when no lane holds
// records.
func (s *Scheduler) laneTop() (Lane, *laneKey) {
	if s.lbusy == 0 {
		return -1, &noKey
	}
	l := s.ltree[1]
	return l, &s.lkeys[l]
}

// dueBy reports whether a live event or a lane head at or before
// deadline is pending.
func (s *Scheduler) dueBy(deadline time.Duration) bool {
	_, at, ok := s.next()
	return ok && at <= deadline
}
