package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// RearmAfterTask must be indistinguishable from Stop followed by
// TimerAfterTask, down to the EventSeq each callback runs with; the
// randomized scripts in equivalence_test.go and lane_test.go pin that
// against the reference scheduler. The cases below pin the edges one at
// a time: which re-arms stay in place, what a moved entry looks like to
// RunUntil, Pending and Reset, and when it settles.

// opLog records the (time, op) of every RunTask call.
type opLog struct {
	s   *Scheduler
	got []string
}

func (l *opLog) RunTask(op int32) {
	l.got = append(l.got, fmt.Sprintf("%v/%d", l.s.Now(), op))
}

func (l *opLog) want(t *testing.T, want ...string) {
	t.Helper()
	if got, w := strings.Join(l.got, " "), strings.Join(want, " "); got != w {
		t.Fatalf("fired [%s], want [%s]", got, w)
	}
}

// TestRearmLaterStaysInPlace: a re-arm to a later deadline keeps the
// slot, fires once at the new deadline with the new op, and leaves the
// old handle stale.
func TestRearmLaterStaysInPlace(t *testing.T) {
	s := NewScheduler(1)
	l := &opLog{s: s}
	old := s.TimerAfterTask(time.Second, l, 0)
	tm := s.RearmAfterTask(old, 3*time.Second, l, 1)
	if tm.slot != old.slot {
		t.Fatalf("re-arm to a later deadline took slot %d, want the old slot %d", tm.slot, old.slot)
	}
	if old.Active() || old.Stop() {
		t.Fatal("the re-armed handle is still live")
	}
	if !tm.Active() || s.Pending() != 1 {
		t.Fatalf("Active = %v, Pending = %d; want true, 1", tm.Active(), s.Pending())
	}
	s.Run()
	l.want(t, "3s/1")
}

// TestRearmEarlierFallsBack: a re-arm to a deadline before the queued
// entry cannot move it, so it stops the entry and arms a fresh one.
func TestRearmEarlierFallsBack(t *testing.T) {
	s := NewScheduler(1)
	l := &opLog{s: s}
	old := s.TimerAfterTask(3*time.Second, l, 0)
	tm := s.RearmAfterTask(old, time.Second, l, 1)
	if tm.slot == old.slot {
		t.Fatal("re-arm to an earlier deadline reused the queued entry")
	}
	if old.Active() || !tm.Active() || s.Pending() != 1 {
		t.Fatalf("old Active = %v, new Active = %v, Pending = %d; want false, true, 1",
			old.Active(), tm.Active(), s.Pending())
	}
	s.Run()
	l.want(t, "1s/1")
	if s.Now() != time.Second {
		t.Fatalf("clock = %v after the stopped entry drained, want 1s", s.Now())
	}
}

// TestRearmAfterStop: a stopped timer whose entry is still queued is
// revived in place; stopping it again cancels the re-armed timer.
func TestRearmAfterStop(t *testing.T) {
	s := NewScheduler(1)
	l := &opLog{s: s}
	tm := s.TimerAfterTask(time.Second, l, 0)
	tm.Stop()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", s.Pending())
	}
	re := s.RearmAfterTask(tm, 2*time.Second, l, 1)
	if re.slot != tm.slot || !re.Active() || s.Pending() != 1 {
		t.Fatalf("slot %d (was %d), Active = %v, Pending = %d; want the old slot, true, 1",
			re.slot, tm.slot, re.Active(), s.Pending())
	}
	s.Run()
	l.want(t, "2s/1")

	// Stopped again after the move: nothing fires.
	tm = s.TimerAfterTask(time.Second, l, 0)
	re = s.RearmAfterTask(tm, 2*time.Second, l, 1)
	if !re.Stop() || re.Active() {
		t.Fatal("Stop of a moved timer did not cancel it")
	}
	s.Run()
	l.want(t, "2s/1")
	if s.Now() != 2*time.Second || s.Pending() != 0 {
		t.Fatalf("clock = %v, Pending = %d; want 2s, 0 (a stopped entry drains without moving the clock)",
			s.Now(), s.Pending())
	}
}

// TestRearmFiredTimer: a handle whose timer already fired is stale, so
// the re-arm arms a fresh timer; so does the zero handle.
func TestRearmFiredTimer(t *testing.T) {
	s := NewScheduler(1)
	l := &opLog{s: s}
	tm := s.TimerAfterTask(time.Second, l, 0)
	s.Run()
	tm = s.RearmAfterTask(tm, time.Second, l, 1)
	if !tm.Active() {
		t.Fatal("re-arm of a fired timer is not active")
	}
	tm = s.RearmAfterTask(Timer{}, 500*time.Millisecond, l, 2)
	s.Run()
	l.want(t, "1s/0", "1.5s/2", "2s/1")
}

// TestRearmRunUntilBetweenKeys: a moved entry whose queued key lies at
// or before the RunUntil deadline and whose real key lies after it
// stays pending, and the clock stops at the deadline — for queued keys
// from 100 µs to an hour out.
func TestRearmRunUntilBetweenKeys(t *testing.T) {
	for _, first := range []time.Duration{
		100 * time.Microsecond,
		50 * time.Millisecond,
		10 * time.Second,
		time.Hour,
	} {
		s := NewScheduler(1)
		l := &opLog{s: s}
		tm := s.RearmAfterTask(s.TimerAfterTask(first, l, 0), 2*first, l, 1)
		for _, deadline := range []time.Duration{first, first + first/2} {
			s.RunUntil(deadline)
			if len(l.got) != 0 || s.Now() != deadline || !tm.Active() || s.Pending() != 1 {
				t.Fatalf("first %v: after RunUntil(%v): fired %v, clock %v, Active %v, Pending %d; want none, %v, true, 1",
					first, deadline, l.got, s.Now(), tm.Active(), s.Pending(), deadline)
			}
		}
		s.Run()
		l.want(t, (2*first).String()+"/1")
	}
}

// TestRearmPendingAndReset: a moved entry counts once in Pending, and
// Reset drops it.
func TestRearmPendingAndReset(t *testing.T) {
	s := NewScheduler(1)
	l := &opLog{s: s}
	tm := s.TimerAfterTask(time.Second, l, 0)
	for i := range 5 {
		tm = s.RearmAfterTask(tm, time.Duration(2+i)*time.Second, l, 1)
	}
	s.AfterTask(30*time.Second, l, 2)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Reset(1)
	if s.Pending() != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", s.Pending())
	}
	s.Run()
	l.want(t)
	if s.Now() != 0 {
		t.Fatalf("clock = %v after Reset and Run, want 0", s.Now())
	}
}

// TestRearmSettlesLazily: a timer re-armed on every lane retire keeps
// its queued entry in place until a lane head passes the entry's queued
// key. A lane retires one record per millisecond for one second, and
// each retire re-arms a 200 ms timer, so the timer never fires and its
// entry settles once per 200 ms, not once per retire. Only lane traffic
// shows this: with the ACKs on a lane, the timer's entry is the heap top
// the whole time, while in rtoChain the next ACK event is.
func TestRearmSettlesLazily(t *testing.T) {
	s := NewScheduler(1)
	l := &testLane{s: s}
	l.id = s.AddLane(l)
	fired := &opLog{s: s}
	tm := s.TimerAfterTask(200*time.Millisecond, fired, 0)
	qat, changes := s.slots[tm.slot].qat, 1 // the first arm
	retired := 0
	var retire func()
	retire = func() {
		if retired++; retired < 1000 {
			l.push(s.Now()+time.Millisecond, retire)
			tm = s.RearmAfterTask(tm, 200*time.Millisecond, fired, 1)
		} else {
			tm.Stop()
		}
		if q := s.slots[tm.slot].qat; q != qat {
			qat = q
			changes++
		}
	}
	l.push(time.Millisecond, retire)
	s.Run()
	fired.want(t)
	if retired != 1000 || changes > 6 {
		t.Fatalf("%d retires moved the timer's queued key %d times; want 1000 retires and at most 6 moves",
			retired, changes)
	}
}

// rtoChain is the TCP RTO pattern: an ACK every step re-arms an RTO
// that lies a few hundred steps out, so it never fires while the chain
// runs.
type rtoChain struct {
	s    *Scheduler
	rto  Timer
	left int
}

const (
	rtoAck  = 0
	rtoFire = 1
	rtoStep = 800 * time.Microsecond
)

func (c *rtoChain) RunTask(op int32) {
	if op == rtoFire {
		panic("sim: RTO fired while the ACK chain was live")
	}
	if c.left--; c.left <= 0 {
		c.rto.Stop()
		return
	}
	c.rto = c.s.RearmAfterTask(c.rto, 200*time.Millisecond, c, rtoFire)
	c.s.AfterTask(rtoStep, c, rtoAck)
}

// TestRearmNoAllocs: once the slot and queue storage exist, re-arming
// in place allocates nothing.
func TestRearmNoAllocs(t *testing.T) {
	s := NewScheduler(1)
	c := &rtoChain{s: s, left: 1 << 30}
	s.AfterTask(0, c, rtoAck)
	s.RunUntil(time.Second) // warm up the slot and heap storage
	if n := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 50*rtoStep) }); n != 0 {
		t.Fatalf("allocs per 50 re-arms = %v, want 0", n)
	}
}

// BenchmarkTimerRearm measures the RTO pattern: one op is one ACK event
// plus one re-arm of a timer 200 ms out. A warm-up chain grows the
// queue storage first, so even one op reports its steady state.
func BenchmarkTimerRearm(b *testing.B) {
	s := NewScheduler(1)
	c := &rtoChain{s: s, left: 1000}
	s.AfterTask(0, c, rtoAck)
	s.Run()
	c.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	s.AfterTask(0, c, rtoAck)
	s.Run()
}
