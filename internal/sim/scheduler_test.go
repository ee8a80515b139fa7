package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerAfterRelative(t *testing.T) {
	s := NewScheduler(1)
	var at time.Duration
	s.After(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.TimerAfter(10*time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.TimerAfter(time.Millisecond, func() {})
	s.Run()
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

// Regression for the seed's operator-precedence bug: Stop after the
// callback fired must report false even when called many times, and a
// double Stop on a pending timer must cancel exactly once.
func TestTimerStopAfterFireAndDoubleStop(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := s.TimerAfter(time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	for i := 0; i < 3; i++ {
		if tm.Stop() {
			t.Fatalf("Stop #%d after fire reported true", i+1)
		}
	}

	cancelled := s.TimerAfter(time.Millisecond, func() { t.Fatal("stopped timer fired") })
	if !cancelled.Stop() {
		t.Fatal("first Stop on a pending timer must report true")
	}
	if cancelled.Stop() {
		t.Fatal("second Stop on the same timer must report false")
	}
	if cancelled.Active() {
		t.Fatal("stopped timer still active")
	}
	s.Run()
}

// A recycled timer slot must not resurrect a stale handle.
func TestTimerSlotReuse(t *testing.T) {
	s := NewScheduler(1)
	old := s.TimerAfter(time.Millisecond, func() {})
	s.Run()
	fired := false
	fresh := s.TimerAfter(time.Millisecond, func() { fired = true })
	if old.Stop() || old.Active() {
		t.Fatal("stale handle acted on a recycled slot")
	}
	s.Run()
	if !fired {
		t.Fatal("fresh timer did not fire")
	}
	_ = fresh
}

type opRecorder struct{ ops []int32 }

func (r *opRecorder) RunTask(op int32) { r.ops = append(r.ops, op) }

func TestTaskScheduling(t *testing.T) {
	s := NewScheduler(1)
	r := &opRecorder{}
	s.AtTask(2*time.Millisecond, r, 2)
	s.AtTask(time.Millisecond, r, 1)
	s.AfterTask(3*time.Millisecond, r, 3)
	tm := s.TimerAfterTask(4*time.Millisecond, r, 4)
	stopped := s.TimerAfterTask(5*time.Millisecond, r, 5)
	stopped.Stop()
	s.Run()
	want := []int32{1, 2, 3, 4}
	if len(r.ops) != len(want) {
		t.Fatalf("ops = %v, want %v", r.ops, want)
	}
	for i := range want {
		if r.ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", r.ops, want)
		}
	}
	if tm.Active() {
		t.Fatal("fired task timer still active")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(25 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25ms) fired %d events, want 2", len(fired))
	}
	if s.Now() != 25*time.Millisecond {
		t.Fatalf("clock = %v, want 25ms", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.RunUntil(100 * time.Millisecond)
	if len(fired) != 4 {
		t.Fatalf("second RunUntil fired %d total, want 4", len(fired))
	}
}

func TestStopAbortsRun(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
}

// taskFunc adapts a function to Task.
type taskFunc func(op int32)

func (f taskFunc) RunTask(op int32) { f(op) }

// TestStopMidInstantResumes pins Stop inside one instant: the rest of
// the instant stays pending, a lane head for the instant runs in seq
// order before the events scheduled after its reservation, a timer
// stopped mid-instant never fires, and the next Run resumes at the
// same instant without moving the clock.
func TestStopMidInstantResumes(t *testing.T) {
	s := NewScheduler(1)
	at := 7 * time.Millisecond
	r := s.ReserveSeq()
	var log []string
	var lane Lane
	lane = s.AddLane(taskFunc(func(int32) {
		log = append(log, "task")
		s.ClearLaneHead(lane)
	}))
	var e4 Timer
	s.At(at, func() {
		log = append(log, "e1")
		s.SetLaneHead(lane, s.Now(), r)
	})
	s.At(at, func() {
		log = append(log, "e2")
		if !e4.Stop() {
			t.Error("e2: Stop on the pending e4 reported false")
		}
	})
	s.At(at, func() {
		log = append(log, "e3")
		s.Stop()
	})
	e4 = s.TimerAt(at, func() { log = append(log, "e4") })
	s.At(at, func() { log = append(log, "e5") })

	s.Run()
	if got := strings.Join(log, " "); got != "e1 task e2 e3" {
		t.Fatalf("first Run fired %q, want %q", got, "e1 task e2 e3")
	}
	if n := s.Pending(); n != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", n)
	}
	if s.Now() != at {
		t.Fatalf("clock after Stop = %v, want %v", s.Now(), at)
	}
	log = nil
	s.Run()
	if got := strings.Join(log, " "); got != "e5" {
		t.Fatalf("second Run fired %q, want %q", got, "e5")
	}
	if s.Now() != at {
		t.Fatalf("clock after second Run = %v, want %v", s.Now(), at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var out []int64
		var tick func()
		tick = func() {
			out = append(out, s.Rand().Int63n(1000))
			if len(out) < 50 {
				s.After(time.Duration(s.Rand().Intn(100))*time.Microsecond, tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestResetReseedsInPlace: Reset re-seeds the scheduler's generator in
// place, so Rand keeps returning the same *rand.Rand, and that
// generator then draws what a fresh NewScheduler with the seed draws,
// even when a partial Read left bytes of an earlier draw buffered.
func TestResetReseedsInPlace(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		buf := make([]byte, 5)
		r.Read(buf)
		out := []int64{r.Int63(), r.Int63n(1000), int64(r.Intn(7)), int64(r.Float64() * 1e9)}
		for _, b := range buf {
			out = append(out, int64(b))
		}
		return out
	}
	s := NewScheduler(1)
	rng := s.Rand()
	draws(rng)
	rng.Read(make([]byte, 3))
	s.Reset(42)
	if s.Rand() != rng {
		t.Fatal("Reset replaced the scheduler's generator")
	}
	if got, want := draws(s.Rand()), draws(NewScheduler(42).Rand()); !slices.Equal(got, want) {
		t.Fatalf("draws after Reset(42) = %v, want NewScheduler(42)'s %v", got, want)
	}
}

// Property: for any batch of events with arbitrary delays, Run fires
// them in nondecreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := NewScheduler(7)
		var fired []time.Duration
		var maxT time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			if at > maxT {
				maxT = at
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			s.After(time.Microsecond, next)
		}
	}
	s.After(0, next)
	s.Run()
}

// sparseChain is a timer chain at one session's event density: events
// 1-3 ticks apart, each of which stops a cancellable timer about
// 200 ms out and arms a fresh one, so the heap holds about two hundred
// stopped entries behind the live one. A timer re-armed in place
// (RearmAfterTask, as TCP's are) leaves no such entries.
type sparseChain struct {
	s    *Scheduler
	rto  Timer
	left int
}

const (
	sparseStep = 0
	sparseRTO  = 1
)

func (c *sparseChain) RunTask(op int32) {
	if op == sparseRTO {
		panic("sim: sparse-chain RTO fired while the chain was live")
	}
	c.rto.Stop()
	if c.left--; c.left <= 0 {
		return
	}
	c.rto = c.s.TimerAfterTask(200*time.Millisecond, c, sparseRTO)
	c.s.AfterTask(tick+time.Duration(c.s.Rand().Int63n(int64(2*tick))), c, sparseStep)
}

// BenchmarkSchedulerSparse measures stopping a timer and arming a fresh
// one at one session's event density: one op is one chain event with
// its timer stop and fresh arm. Unlike BenchmarkSchedulerChurn, whose
// heap holds one entry, it keeps the stopped entries of about 200 ms of
// timers queued, so each push and pop sifts through a heap of about two
// hundred. A warm-up chain grows the heap first, so even one op
// reports the steady state's allocations.
func BenchmarkSchedulerSparse(b *testing.B) {
	s := NewScheduler(1)
	c := &sparseChain{s: s, left: 1000}
	s.AfterTask(100*time.Microsecond, c, sparseStep)
	s.Run()
	c.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	s.AfterTask(100*time.Microsecond, c, sparseStep)
	s.Run()
}
