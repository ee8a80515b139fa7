package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The scheduler must fire every workload in exactly the
// (time, insertion-order) sequence a plain sorted event list produces.
// refSched is that sorted list — an O(n^2) executable spec of the
// scheduler contract — and runWorkload drives both implementations
// through identical randomized schedule/stop/re-arm scripts whose
// delays range from exact ties to hours. A re-arm's reference is Stop
// followed by a fresh timer, which is what RearmAfterTask must be
// indistinguishable from, down to the EventSeq each callback runs with.

// tick is a coarse time grid, 2^19 ns (about 524 µs). Delays drawn in
// whole ticks make events scheduled at different times collide on one
// instant, where only their seqs order them.
const tick time.Duration = 1 << 19

type refEvent struct {
	at      time.Duration
	seq     uint64
	fn      func()
	stopped *bool
	lane    int // 1 + the lane a record belongs to; 0 for an event
}

type refSched struct {
	now  time.Duration
	seq  uint64
	cur  uint64 // seq of the event being run
	evs  []refEvent
	halt bool // Stop was called during the current run
}

func (r *refSched) after(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.evs = append(r.evs, refEvent{at: r.now + d, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSched) timer(d time.Duration, fn func()) wlTimer {
	h := &refTimer{r: r}
	h.arm(d, fn)
	return h
}

// refTimer is a reference timer handle; a re-arm stops the current
// timer and arms a fresh one.
type refTimer struct {
	r              *refSched
	stopped, fired *bool
}

func (h *refTimer) arm(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	stopped, fired := new(bool), new(bool)
	h.stopped, h.fired = stopped, fired
	h.r.evs = append(h.r.evs, refEvent{
		at:  h.r.now + d,
		seq: h.r.seq,
		fn: func() {
			*fired = true
			fn()
		},
		stopped: stopped,
	})
	h.r.seq++
}

func (h *refTimer) stop() bool {
	if *h.stopped || *h.fired {
		return false
	}
	*h.stopped = true
	return true
}

func (h *refTimer) rearm(d time.Duration, fn func()) {
	h.stop()
	h.arm(d, fn)
}

// next returns the index of the earliest live event, or -1.
func (r *refSched) next() int {
	best := -1
	for i := range r.evs {
		e := &r.evs[i]
		if e.stopped != nil && *e.stopped {
			continue
		}
		if best < 0 || e.at < r.evs[best].at ||
			(e.at == r.evs[best].at && e.seq < r.evs[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refSched) step(i int) {
	ev := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	r.now, r.cur = ev.at, ev.seq
	ev.fn()
}

func (r *refSched) run() {
	r.halt = false
	for !r.halt {
		i := r.next()
		if i < 0 {
			return
		}
		r.step(i)
	}
}

// runUntil advances the clock to deadline unless a Stop left an event
// at or before it pending.
func (r *refSched) runUntil(deadline time.Duration) {
	r.halt = false
	for !r.halt {
		i := r.next()
		if i < 0 || r.evs[i].at > deadline {
			break
		}
		r.step(i)
	}
	if i := r.next(); r.now < deadline && (i < 0 || r.evs[i].at > deadline) {
		r.now = deadline
	}
}

func (r *refSched) nowAt() time.Duration { return r.now }
func (r *refSched) eventSeq() uint64     { return r.cur }

// pending counts live events, and each lane holding records once.
func (r *refSched) pending() int {
	n := 0
	var lanes []int
	for i := range r.evs {
		e := &r.evs[i]
		switch {
		case e.lane > 0:
			if !slices.Contains(lanes, e.lane) {
				lanes = append(lanes, e.lane)
				n++
			}
		case e.stopped == nil || !*e.stopped:
			n++
		}
	}
	return n
}

// wlDriver abstracts the surface the workload script uses, so the same
// script runs against the real scheduler and the reference.
type wlDriver interface {
	after(d time.Duration, fn func())
	timer(d time.Duration, fn func()) wlTimer
	run()
	runUntil(deadline time.Duration)
	nowAt() time.Duration
	eventSeq() uint64
	pending() int
}

// wlTimer is a timer handle in the workload script: stop reports
// whether the timer was still pending, and rearm points the handle at
// a timer armed afresh, d from now.
type wlTimer interface {
	stop() bool
	rearm(d time.Duration, fn func())
}

type realDriver struct{ s *Scheduler }

func (r realDriver) after(d time.Duration, fn func()) { r.s.After(d, fn) }
func (r realDriver) timer(d time.Duration, fn func()) wlTimer {
	return &realTimer{s: r.s, t: r.s.TimerAfter(d, fn)}
}
func (r realDriver) run()                            { r.s.Run() }
func (r realDriver) runUntil(deadline time.Duration) { r.s.RunUntil(deadline) }
func (r realDriver) nowAt() time.Duration            { return r.s.Now() }
func (r realDriver) eventSeq() uint64                { return r.s.EventSeq() }
func (r realDriver) pending() int                    { return r.s.Pending() }

type realTimer struct {
	s *Scheduler
	t Timer
}

func (h *realTimer) stop() bool { return h.t.Stop() }
func (h *realTimer) rearm(d time.Duration, fn func()) {
	h.t = h.s.RearmAfterTask(h.t, d, fnTask(fn), 0)
}

// fnTask runs a closure as a Task, so the script can re-arm a timer
// with a callback of its own.
type fnTask func()

func (f fnTask) RunTask(int32) { f() }

// traceEntry is one callback's id, clock and EventSeq, or a mark the
// script records between runs (id < 0, seq 0).
type traceEntry struct {
	id  int
	at  time.Duration
	seq uint64
}

// runWorkload drives d through a deterministic random script: an
// initial batch of events whose callbacks spawn more events, arm
// cancellable timers, stop earlier timers (scheduling a replacement
// event when one was live) and re-arm them, whether live, stopped or
// already fired. Delays are drawn from exact ties, under one tick, up
// to 100 ms, 30 s and 2 h, from 3 to 11 h, and from a tick-aligned grid,
// so entries queued far apart in time tie on one instant and a timer's
// queued entry can lie far before or after its re-armed deadline. The
// trace (and the
// embedded rng) diverges at the first ordering or EventSeq difference,
// so equal traces mean bit-identical firing order and tie-break seqs.
func runWorkload(d wlDriver, seed int64, n int) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var timers []wlTimer
	id := 0
	delay := func() time.Duration {
		switch rng.Intn(7) {
		case 0:
			return 0 // exact tie with now
		case 1:
			return time.Duration(rng.Int63n(int64(tick)))
		case 2:
			return time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
		case 3:
			return time.Duration(rng.Int63n(int64(30 * time.Second)))
		case 4:
			return time.Duration(rng.Int63n(int64(2 * time.Hour)))
		case 5:
			return 3*time.Hour + time.Duration(rng.Int63n(int64(8*time.Hour)))
		default:
			// Tick-aligned, so distinct events collide.
			return time.Duration(rng.Int63n(512)) * tick
		}
	}
	var fire func(myID int) func()
	fire = func(myID int) func() {
		return func() {
			trace = append(trace, traceEntry{myID, d.nowAt(), d.eventSeq()})
			switch r := rng.Intn(10); {
			case r < 3 && myID < n*6: // spawn follow-up events
				for k := rng.Intn(2); k >= 0; k-- {
					id++
					d.after(delay(), fire(id))
				}
			case r < 6 && myID < n*6: // arm a cancellable timer
				id++
				timers = append(timers, d.timer(delay(), fire(id)))
			case r < 8 && len(timers) > 0: // stop one; replace it if it was live
				if timers[rng.Intn(len(timers))].stop() && myID < n*6 {
					id++
					d.after(delay(), fire(id))
				}
			case r < 10 && len(timers) > 0 && myID < n*6: // re-arm one
				// Re-arms of one handle in a row stack moves on one
				// entry wherever each lies at or after its queued key.
				h := timers[rng.Intn(len(timers))]
				for k := rng.Intn(3); k >= 0; k-- {
					id++
					h.rearm(delay(), fire(id))
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		id++
		if i%3 == 0 {
			timers = append(timers, d.timer(delay(), fire(id)))
		} else {
			d.after(delay(), fire(id))
		}
	}
	// Stop a few timers before anything runs, and re-arm a few others
	// in place.
	for i := 0; i < len(timers); i += 4 {
		timers[i].stop()
	}
	for i := 1; i < len(timers); i += 4 {
		id++
		timers[i].rearm(delay(), fire(id))
	}
	d.runUntil(90 * time.Second)
	trace = append(trace, traceEntry{id: -1, at: d.nowAt()})
	trace = append(trace, traceEntry{id: -d.pending() - 2})
	d.run()
	trace = append(trace, traceEntry{id: -1, at: d.nowAt()})
	return trace
}

func diffTraces(t *testing.T, seed int64, ref, got []traceEntry) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("seed %d: trace lengths differ: ref %d vs got %d", seed, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("seed %d: traces diverge at %d: ref %+v vs got %+v", seed, i, ref[i], got[i])
		}
	}
}

// TestSchedulerEquivalence pins the scheduler contract: randomized
// timer workloads fire in exactly the order, and with exactly the
// EventSeqs, of the reference sorted-list scheduler.
func TestSchedulerEquivalence(t *testing.T) {
	n := 48
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := runWorkload(&refSched{}, seed, n)
		got := runWorkload(realDriver{NewScheduler(1)}, seed, n)
		diffTraces(t, seed, ref, got)
	}
}

// FuzzSchedulerEquivalence lets the fuzzer hunt for workload shapes
// where the scheduler's firing order deviates from the reference.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(42), uint8(64))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		size := int(n%96) + 1
		ref := runWorkload(&refSched{}, seed, size)
		got := runWorkload(realDriver{NewScheduler(1)}, seed, size)
		diffTraces(t, seed, ref, got)
	})
}

// TestPendingAcrossHorizons checks that Pending() counts events from
// 100 µs to 6 h out, that a Stop is reflected at once, and that RunUntil
// leaves the events past its deadline pending.
func TestPendingAcrossHorizons(t *testing.T) {
	s := NewScheduler(1)
	delays := []time.Duration{
		100 * time.Microsecond,
		50 * time.Millisecond,
		10 * time.Second,
		time.Hour,
		6 * time.Hour,
	}
	for _, d := range delays {
		s.After(d, func() {})
	}
	tm := s.TimerAfter(20*time.Second, func() { t.Fatal("stopped timer fired") })
	if got := s.Pending(); got != len(delays)+1 {
		t.Fatalf("Pending = %d, want %d", got, len(delays)+1)
	}
	tm.Stop()
	if got := s.Pending(); got != len(delays) {
		t.Fatalf("Pending after Stop = %d, want %d", got, len(delays))
	}
	s.RunUntil(time.Minute)
	if s.Pending() != 2 { // hour + 6h still pending
		t.Fatalf("Pending after RunUntil(1m) = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", s.Pending())
	}
	if s.Now() != 6*time.Hour {
		t.Fatalf("clock = %v, want 6h", s.Now())
	}
}

// TestTieBetweenEarlyAndLateInserts pins seq-order ties between an
// event scheduled 600 ms ahead and two scheduled for the same instant
// 1 ms before it: insertion order must win.
func TestTieBetweenEarlyAndLateInserts(t *testing.T) {
	s := NewScheduler(1)
	target := 600 * time.Millisecond
	var got []int
	s.At(target, func() { got = append(got, 1) })
	s.At(target-time.Millisecond, func() {
		s.At(target, func() { got = append(got, 2) })
		s.At(target, func() { got = append(got, 3) })
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("tie between early and late inserts fired as %v, want [1 2 3]", got)
	}
}

// TestStopFarTimer cancels a timer 45 minutes out and checks that it
// neither fires nor holds the clock, while an unrelated later event
// still fires at the right time.
func TestStopFarTimer(t *testing.T) {
	s := NewScheduler(1)
	tm := s.TimerAfter(45*time.Minute, func() { t.Fatal("stopped timer fired") })
	fired := false
	s.After(time.Hour, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on parked timer reported false")
	}
	s.Run()
	if !fired {
		t.Fatal("surviving event did not fire")
	}
	if s.Now() != time.Hour {
		t.Fatalf("clock = %v, want 1h", s.Now())
	}
}

// TestStopRearmChurn drives the RTO pattern — arm, stop before
// maturity, arm afresh — twenty times over and verifies that only the
// final event fires.
func TestStopRearmChurn(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	var rearm func(depth int)
	rearm = func(depth int) {
		tm := s.TimerAfter(time.Duration(depth+1)*time.Second, func() { t.Fatal("cancelled RTO fired") })
		s.After(500*time.Millisecond, func() {
			if !tm.Stop() {
				t.Fatal("RTO already fired before Stop")
			}
			if depth > 0 {
				rearm(depth - 1)
			} else {
				s.After(250*time.Millisecond, func() { fired++ })
			}
		})
	}
	rearm(20)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}
