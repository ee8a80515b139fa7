// Package sim provides a deterministic discrete-event scheduler used by
// every other substrate in this repository. Virtual time is a
// time.Duration offset from the start of the simulation; events fire in
// (time, insertion-order) order, so runs with the same seed are fully
// reproducible.
//
// Every event and timer lives in one value-based 4-ary heap ordered by
// (time, insertion-order). Entries are stored inline, so scheduling a
// fire-and-forget event performs no allocation beyond the callback
// itself. Hot paths that would otherwise allocate a closure per event
// can instead implement Task and schedule themselves with AtTask,
// passing a small op code to select the behaviour. Cancellable timers
// draw bookkeeping slots from a free list, and RearmAfterTask re-arms
// one in place: while its queued entry lies at or before the new
// deadline, a re-arm only records the new key in the slot, and the
// entry moves there only once it is the heap top and its queued key
// orders before every lane head. A timer pushed forward on every ACK
// (the TCP RTO pattern) so costs one queue placement per RTO interval,
// not one per ACK.
//
// Lanes (lane.go) serve work that would otherwise cost one event per
// item: a lane keeps its own records sorted by (time, seq) and reports
// only its head, and the loop merges the lane heads with the event
// queue, so a record runs exactly where an event carrying its reserved
// seq would have run, without entering the queue.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Task is a pre-allocated event callback. A single Task value may be
// scheduled several times with different op codes; RunTask dispatches
// on op. This exists so hot paths (one or more events per packet) can
// avoid allocating a closure per event.
type Task interface {
	RunTask(op int32)
}

// event is one scheduled callback, stored by value in the heap. seq
// breaks ties between events scheduled for the same instant so
// ordering is deterministic. Exactly one of fn and task is set. slot
// is the timer-slot index for cancellable events, -1 otherwise.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	task Task
	op   int32
	slot int32
}

// timerSlot tracks the cancellation state of one outstanding timer.
// Slots are recycled through a free list; gen distinguishes a live
// slot from a stale Timer handle pointing at a recycled one. qat is
// the time the timer's entry is queued at. A timer re-armed in place
// (RearmAfterTask) keeps that entry and sets moved: at, seq, task and
// op then hold its real key and callback, and the entry re-places
// itself there when it leaves the queue instead of running.
type timerSlot struct {
	gen     uint32
	pending bool
	stopped bool
	moved   bool
	op      int32
	qat     time.Duration
	at      time.Duration
	seq     uint64
	task    Task
}

const noSlot = -1

// Timer is a handle to a cancellable scheduled event. The zero value
// is inert: Stop and Active return false.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the callback had not yet
// fired (and therefore will never fire). Stopping an already-fired or
// already-stopped timer is a no-op that reports false.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen || !sl.pending || sl.stopped {
		return false
	}
	sl.stopped = true
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.gen == t.gen && sl.pending && !sl.stopped
}

// Scheduler is a single-threaded discrete-event loop. The zero value is
// not usable; call NewScheduler.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	cur     uint64 // seq of the executing event; == seq when idle
	heap    []event
	slots   []timerSlot
	free    []int32
	rng     *rand.Rand
	stopped bool

	// Lanes (see lane.go): registered tasks by id, the winner tree
	// over their heads, and how many lanes hold records.
	lanes []Task
	ltree []laneNode
	lbusy int

	// Events counts queue events run and Retires lane records retired
	// since NewScheduler or the last Reset. Both are deterministic work
	// counters: a link hop is one retire.
	Events, Retires int64
}

// NewScheduler returns a scheduler whose clock starts at zero and whose
// random source is seeded with seed.
func NewScheduler(seed int64) *Scheduler {
	// The lane tree starts with one leaf, which is also its root.
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), ltree: []laneNode{emptyHead, emptyHead}}
}

// Reset returns the scheduler to the state NewScheduler(seed) produces
// while keeping every backing allocation — heap, timer slots and the
// random generator — so a recycled scheduler runs the next simulation
// without rebuilding its queues. Pending events are discarded (their
// fn/task references released), every lane's head is cleared, the
// counters are zeroed and the generator is re-seeded in place, which
// yields the stream a fresh NewScheduler(seed) draws. Lane
// registrations survive: like a link's receiver they are wiring, not
// state. Outstanding Timer handles must not be used across a Reset:
// slot generations restart, so a stale handle could alias a fresh
// timer.
func (s *Scheduler) Reset(seed int64) {
	s.now = 0
	s.seq = 0
	s.cur = 0
	clear(s.heap)
	s.heap = s.heap[:0]
	clear(s.slots)
	s.slots = s.slots[:0]
	s.free = s.free[:0]
	s.rng.Seed(seed)
	s.stopped = false
	// Inner nodes carry copies of heads, so every node is rewritten.
	for i := range s.ltree {
		s.ltree[i] = emptyHead
	}
	s.lbusy = 0
	s.Events = 0
	s.Retires = 0
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. It is the
// same generator for the scheduler's lifetime: Reset re-seeds it in
// place.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

func (s *Scheduler) schedule(t time.Duration, fn func(), task Task, op int32, slot int32) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.push(event{at: t, seq: s.seq, fn: fn, task: task, op: op, slot: slot})
	s.seq++
}

// ReserveSeq consumes and returns the next event sequence number
// without scheduling anything. A lane reserves the number of each
// record where the one-event-per-record scheme would have scheduled
// it, so the record sorts exactly where that event would have.
func (s *Scheduler) ReserveSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// EventSeq returns the sequence number of the event or lane record
// being executed, or the next number to be assigned when the loop is
// idle — the bound below which every scheduled event has already fired.
func (s *Scheduler) EventSeq() uint64 { return s.cur }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it is always a logic error in a discrete-event model.
// Use TimerAt when the event may need to be cancelled.
func (s *Scheduler) At(t time.Duration, fn func()) {
	s.schedule(t, fn, nil, 0, noSlot)
}

// fromNow converts a relative delay to an absolute timestamp,
// clamping negative delays to "now".
func (s *Scheduler) fromNow(d time.Duration) time.Duration {
	if d < 0 {
		return s.now
	}
	return s.now + d
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.schedule(s.fromNow(d), fn, nil, 0, noSlot)
}

// AtTask schedules task.RunTask(op) at absolute virtual time t without
// allocating: the task is supplied by the caller and the event itself
// is stored inline in the heap.
func (s *Scheduler) AtTask(t time.Duration, task Task, op int32) {
	s.schedule(t, nil, task, op, noSlot)
}

// AfterTask schedules task.RunTask(op) to run d after the current time.
func (s *Scheduler) AfterTask(d time.Duration, task Task, op int32) {
	s.schedule(s.fromNow(d), nil, task, op, noSlot)
}

// newTimer allocates a cancellation slot from the free list for a
// timer queued at t.
func (s *Scheduler) newTimer(t time.Duration) (int32, Timer) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, timerSlot{})
	}
	sl := &s.slots[slot]
	sl.pending = true
	sl.qat = t
	return slot, Timer{s: s, slot: slot, gen: sl.gen}
}

// freeSlot retires a slot after its event popped (fired or cancelled),
// invalidating outstanding Timer handles.
func (s *Scheduler) freeSlot(slot int32) {
	s.slots[slot] = timerSlot{gen: s.slots[slot].gen + 1}
	s.free = append(s.free, slot)
}

// TimerAt schedules fn at absolute virtual time t and returns a handle
// that can cancel it.
func (s *Scheduler) TimerAt(t time.Duration, fn func()) Timer {
	slot, tm := s.newTimer(t)
	s.schedule(t, fn, nil, 0, slot)
	return tm
}

// TimerAfter schedules fn to run d after the current time and returns
// a cancellation handle.
func (s *Scheduler) TimerAfter(d time.Duration, fn func()) Timer {
	return s.TimerAt(s.fromNow(d), fn)
}

// TimerAfterTask is TimerAfter for pre-allocated Tasks: cancellable and
// allocation-free at steady state.
func (s *Scheduler) TimerAfterTask(d time.Duration, task Task, op int32) Timer {
	at := s.fromNow(d)
	slot, tm := s.newTimer(at)
	s.schedule(at, nil, task, op, slot)
	return tm
}

// RearmAfterTask re-arms t to run task.RunTask(op) d after the current
// time and returns the new handle; t itself goes stale. Its effect is
// exactly that of t.Stop() followed by TimerAfterTask(d, task, op),
// the same deadline and the same tie-break seq included. While t's
// entry is still queued (live or stopped) at or before the new
// deadline, the entry stays where it is and only its slot records the
// new key; the entry re-places itself at that key once its queued key
// orders before every other queued key and every lane head (see next).
// An entry's queued key is never later than its real one, so it always
// re-places before its real key is due. This is
// the TCP RTO pattern — re-armed on every ACK, rarely fired — at one
// slot write per re-arm instead of one queue placement.
func (s *Scheduler) RearmAfterTask(t Timer, d time.Duration, task Task, op int32) Timer {
	at := s.fromNow(d)
	if t.s == s {
		if sl := &s.slots[t.slot]; sl.gen == t.gen && sl.pending && sl.qat <= at {
			sl.gen++
			sl.stopped = false
			sl.moved = true
			sl.at, sl.seq, sl.task, sl.op = at, s.ReserveSeq(), task, op
			return Timer{s: s, slot: t.slot, gen: sl.gen}
		}
	}
	t.Stop()
	return s.TimerAfterTask(d, task, op)
}

// ---- 4-ary heap, ordered by (at, seq) ----
//
// A 4-ary layout halves the tree depth of a binary heap; combined with
// value storage this keeps pop/push cache-friendly, which dominates
// the simulator's profile at packet scale.

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(ev event) {
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&ev, &s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = ev
}

func (s *Scheduler) pop() event {
	top := s.heap[0]
	n := len(s.heap) - 1
	ev := s.heap[n]
	s.heap[n] = event{} // release fn/task references
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(ev)
	}
	return top
}

// siftDown sifts ev down from the root into the hole pop left there.
func (s *Scheduler) siftDown(ev event) {
	h := s.heap
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if evLess(&h[c], &h[best]) {
				best = c
			}
		}
		if !evLess(&h[best], &ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// ---- Event loop ----

// next returns the earliest pending work: lane l >= 0 with its head's
// time, or l < 0 with the time of the heap top, which is then a live
// event; ok is false when nothing is pending. It settles the heap top
// (drops a stopped timer's entry, re-places a moved one at the key its
// slot recorded) only while that entry's queued key orders before every
// lane head. No real key in the heap is earlier than the top's queued
// key, so a lane head that orders before it orders before every live
// event and the top can wait: a timer re-armed on every lane retire
// (the RTO behind a link's ACKs) then settles once per re-arm interval
// instead of once per retire.
func (s *Scheduler) next() (l Lane, at time.Duration, ok bool) {
	h := &s.ltree[1]
	for len(s.heap) > 0 {
		ev := &s.heap[0]
		if h.at < ev.at || h.at == ev.at && h.seq < ev.seq {
			break
		}
		if ev.slot != noSlot {
			if sl := &s.slots[ev.slot]; sl.stopped {
				s.freeSlot(s.pop().slot)
				continue
			} else if sl.moved {
				// The recorded key is later than the queued one, so the
				// entry re-placed there replaces the top and sifts down.
				sl.moved = false
				sl.qat = sl.at
				s.siftDown(event{at: sl.at, seq: sl.seq, task: sl.task, op: sl.op, slot: ev.slot})
				continue
			}
		}
		return -1, ev.at, true
	}
	if s.lbusy == 0 {
		return -1, 0, false
	}
	return h.lane, h.at, true
}

// step runs the earliest pending event or lane record unless it lies
// past deadline, and reports whether it ran one. Events that share a
// timestamp fire in seq order (events scheduled during the instant
// carry larger seqs); a lane record runs with the clock and EventSeq
// set to its head.
func (s *Scheduler) step(deadline time.Duration) bool {
	l, at, ok := s.next()
	if !ok || at > deadline {
		return false
	}
	s.now = at
	if l >= 0 {
		s.cur = s.ltree[1].seq
		s.Retires++
		s.lanes[l].RunTask(int32(l))
	} else {
		ev := s.pop()
		if ev.slot != noSlot {
			s.freeSlot(ev.slot)
		}
		s.cur = ev.seq
		s.Events++
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.task.RunTask(ev.op)
		}
	}
	s.cur = s.seq
	return true
}

// Run processes events and lane records until none remain or Stop is
// called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step(math.MaxInt64) {
	}
}

// RunUntil processes events and lane records with timestamps <=
// deadline and then advances the clock to deadline, unless Stop ended
// the loop while one of them was still due. Events scheduled after
// deadline stay pending.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped && s.step(deadline) {
	}
	if s.now >= deadline || s.stopped && s.dueBy(deadline) {
		return
	}
	s.now = deadline
}

// Stop aborts a Run or RunUntil in progress after the current event or
// lane record.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of live scheduled events plus the number
// of lanes holding records (a lane counts once however many it holds).
func (s *Scheduler) Pending() int {
	n := s.lbusy
	for i := range s.heap {
		ev := &s.heap[i]
		if ev.slot != noSlot && s.slots[ev.slot].stopped {
			continue
		}
		n++
	}
	return n
}
