package sim

import (
	"math/bits"
	"time"
)

// The hierarchical timer wheel defers mid-range events away from the
// heap. A fleet schedules O(clients) concurrent pacing, RTO and
// delayed-ACK timers per tick; keeping them all in one heap makes every
// push/pop pay O(log n) on a structure too big for cache. The wheel
// gives those timers O(1) insertion and lets timers that are cancelled
// before maturing die without ever touching the heap. TCP re-arms its
// RTO per ACK in place (RearmAfterTask): the entry keeps its slot, and
// when the slot is flushed it re-places itself at the deadline its
// timer slot recorded last instead of maturing.
//
// Layout: wheelLevels levels of wheelSlots slots each. One tick is
// 1<<tickShift nanoseconds (~524 µs); a level-L slot spans
// wheelSlots^L ticks, so the wheel covers ~2.4 hours. Events due in
// the current tick go straight to the heap, events beyond the wheel
// horizon overflow to the heap too (the far-future tier). The heap
// therefore always holds the imminent frontier and orders it by
// (at, seq) exactly as before; the wheel only controls *when* an event
// is handed to the heap, never in which order it fires. A slot is
// flushed before the clock can reach any timestamp inside it (slots
// are flushed whenever their start bound reaches the heap frontier,
// compared with <=, so ties are broken by seq in the heap), which is
// what keeps the firing order bit-identical to a pure-heap scheduler —
// the property the equivalence suite in wheel_test.go pins.
const (
	tickShift   = 19 // one tick = 2^19 ns ≈ 524 µs
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
)

// wheelNode is one deferred event in a slot's singly-linked list.
// Nodes live in Scheduler.wnodes and are recycled through wfree; links
// are index+1 so the zero value means nil and fresh slots need no
// initialization.
type wheelNode struct {
	ev   event
	next int32
}

// place routes a scheduled event to the heap or a wheel slot.
func (s *Scheduler) place(ev event) {
	d := int64(ev.at>>tickShift) - s.wcursor
	var level int
	switch {
	case d < 1:
		s.push(ev)
		return
	case d < 1<<wheelBits:
		level = 0
	case d < 1<<(2*wheelBits):
		level = 1
	case d < 1<<(3*wheelBits):
		level = 2
	default: // beyond the wheel horizon: far-future overflow tier
		s.push(ev)
		return
	}
	lt := int64(ev.at>>tickShift) >> (wheelBits * level)
	slot := int(lt & wheelMask)
	var ni int32
	if n := len(s.wfree); n > 0 {
		ni = s.wfree[n-1]
		s.wfree = s.wfree[:n-1]
	} else {
		s.wnodes = append(s.wnodes, wheelNode{})
		ni = int32(len(s.wnodes)) // index+1
	}
	nd := &s.wnodes[ni-1]
	nd.ev = ev
	nd.next = s.wheel[level][slot]
	s.wheel[level][slot] = ni
	s.wbits[level][slot>>6] |= 1 << (slot & 63)
	s.wcount++
	if start := lt << (wheelBits * level); s.wbound >= 0 && start < s.wbound {
		s.wbound = start
	}
}

// wheelBound returns the start tick of the earliest occupied slot — a
// lower bound on every wheel event's timestamp. The scan result is
// cached; insertions below the cache min-update it and advances
// invalidate it.
func (s *Scheduler) wheelBound() int64 {
	if s.wbound >= 0 {
		return s.wbound
	}
	best := int64(-1)
	for level := 0; level < wheelLevels; level++ {
		cur := s.wcursor >> (wheelBits * level)
		d := s.nextOccupied(level, int(cur&wheelMask))
		if d == 0 {
			continue
		}
		start := (cur + int64(d)) << (wheelBits * level)
		if best < 0 || start < best {
			best = start
		}
	}
	s.wbound = best
	return best
}

// nextOccupied returns the cyclic distance (1..wheelSlots) from
// curSlot to the next occupied slot of the level, or 0 if the level is
// empty. Distance wheelSlots is curSlot itself — a slot one full
// rotation ahead. The scan reads the occupancy bitmap a word at a
// time: the word holding curSlot+1 with the bits below it masked off,
// then the following words cyclically, ending with that first word
// again, whose only bits left to find are the ones the mask hid.
func (s *Scheduler) nextOccupied(level, curSlot int) int {
	bm := &s.wbits[level]
	start := (curSlot + 1) & wheelMask
	w := start >> 6
	word := bm[w] & (^uint64(0) << (start & 63))
	for range len(bm) + 1 {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return (slot-start)&wheelMask + 1
		}
		w = (w + 1) % len(bm)
		word = bm[w]
	}
	return 0
}

// advance moves the wheel cursor to tick (an occupied-slot start bound
// from wheelBound) and flushes the slot entered at every level:
// matured events go to the heap, still-distant ones re-place into a
// lower level, cancelled timers are dropped without ever reaching the
// heap. Every slot whose start is < tick is empty by construction
// (tick is the minimal occupied bound), so the cursor can jump.
func (s *Scheduler) advance(tick int64) {
	old := s.wcursor
	s.wcursor = tick
	s.wbound = -1
	for level := wheelLevels - 1; level >= 0; level-- {
		sh := wheelBits * level
		if tick>>sh == old>>sh {
			continue // still in the same level-L slot
		}
		slot := int((tick >> sh) & wheelMask)
		ni := s.wheel[level][slot]
		if ni == 0 {
			continue
		}
		s.wheel[level][slot] = 0
		s.wbits[level][slot>>6] &^= 1 << (slot & 63)
		for ni != 0 {
			nd := &s.wnodes[ni-1]
			ev, next := nd.ev, nd.next
			nd.ev = event{} // release fn/task references
			s.wfree = append(s.wfree, ni)
			s.wcount--
			ni = next
			if ev.slot != noSlot {
				if sl := &s.slots[ev.slot]; sl.stopped {
					s.freeSlot(ev.slot)
					continue
				} else if sl.moved {
					s.place(s.rearmed(ev.slot))
					continue
				}
			}
			if level == 0 {
				// A level-0 slot entered by the cursor holds only matured
				// events: batch-pop the whole slot straight onto the heap
				// instead of re-deriving the route per event.
				s.push(ev)
				continue
			}
			s.place(ev)
		}
	}
}

// nextReady flushes the wheel up to the frontier — the earlier of the
// heap top and the lane heads — and returns the timestamp of the
// earliest live heap event. On return the wheel holds only events at
// strictly later timestamps than the frontier (or equal timestamps with
// larger seq — impossible, since equal timestamps share a slot bound
// and the bound comparison is <=), so either the heap top is the
// earliest live event or the lane head orders before every event.
func (s *Scheduler) nextReady() (time.Duration, bool) {
	for {
		at, ok := s.heapTopLive()
		if s.wcount == 0 {
			return at, ok
		}
		b := s.wheelBound()
		if b < 0 {
			return at, ok
		}
		lim := time.Duration(b << tickShift)
		if _, h := s.laneTop(); ok && at < lim || h.at < lim {
			return at, ok
		}
		s.advance(b)
	}
}

// heapTopLive discards cancelled timers at the top of the heap,
// re-places timers re-armed in place at their recorded keys, and
// reports the earliest live heap event's timestamp.
func (s *Scheduler) heapTopLive() (time.Duration, bool) {
	for len(s.heap) > 0 {
		ev := &s.heap[0]
		if ev.slot != noSlot {
			if sl := &s.slots[ev.slot]; sl.stopped {
				popped := s.pop()
				s.freeSlot(popped.slot)
				continue
			} else if sl.moved {
				s.placeAt(s.rearmed(s.pop().slot))
				continue
			}
		}
		return ev.at, true
	}
	return 0, false
}

// wheelPending counts live (non-cancelled) events parked in the wheel.
func (s *Scheduler) wheelPending() int {
	n := 0
	for level := range s.wheel {
		for _, ni := range s.wheel[level] {
			for ni != 0 {
				nd := &s.wnodes[ni-1]
				if nd.ev.slot == noSlot || !s.slots[nd.ev.slot].stopped {
					n++
				}
				ni = nd.next
			}
		}
	}
	return n
}
