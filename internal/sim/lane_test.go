package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Lanes must be invisible: a record retired through a lane runs exactly
// where an ordinary event carrying its reserved seq would have fired.
// The reference is refSched with every record scheduled as such an
// event, and runLaneWorkload drives both through the same randomized
// script of events, timers, timer stops and re-arms, Stop calls and
// record pushes onto lanes, from one lane to a fleet cell's 68.

// testLane keeps its records sorted by (at, seq) the way netem.Link
// keeps its flights: pushes append, and a push earlier than the tail
// (a propagation-delay shrink) inserts after every record at or before
// its time, since those carry smaller seqs.
type testLane struct {
	s    *Scheduler
	id   Lane
	recs []laneRec
}

type laneRec struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (l *testLane) push(at time.Duration, fn func()) {
	rec := laneRec{at: at, seq: l.s.ReserveSeq(), fn: fn}
	i := len(l.recs)
	for i > 0 && l.recs[i-1].at > at {
		i--
	}
	l.recs = slices.Insert(l.recs, i, rec)
	if i == 0 {
		l.s.SetLaneHead(l.id, at, rec.seq)
	}
}

func (l *testLane) RunTask(op int32) {
	if Lane(op) != l.id {
		panic("sim: lane ran with another lane's id")
	}
	if now, head := l.s.Now(), l.recs[0]; now != head.at || l.s.EventSeq() != head.seq {
		panic("sim: lane ran off its head's (at, seq)")
	}
	rec := l.recs[0]
	l.recs = slices.Delete(l.recs, 0, 1)
	if len(l.recs) == 0 {
		l.s.ClearLaneHead(l.id)
	} else {
		l.s.SetLaneHead(l.id, l.recs[0].at, l.recs[0].seq)
	}
	rec.fn()
}

// laneSched is wlDriver plus lane pushes and Stop.
type laneSched interface {
	wlDriver
	push(lane int, at time.Duration, fn func())
	stop()
}

type realLaneSched struct {
	realDriver
	lanes []*testLane
}

func newRealLaneSched(n int) *realLaneSched {
	d := &realLaneSched{realDriver: realDriver{NewScheduler(1)}}
	for range n {
		l := &testLane{s: d.s}
		l.id = d.s.AddLane(l)
		d.lanes = append(d.lanes, l)
	}
	return d
}

func (d *realLaneSched) push(lane int, at time.Duration, fn func()) { d.lanes[lane].push(at, fn) }
func (d *realLaneSched) stop()                                      { d.s.Stop() }

// push schedules the record as an ordinary event with the next seq, the
// number the real lane reserves.
func (r *refSched) push(lane int, at time.Duration, fn func()) {
	r.evs = append(r.evs, refEvent{at: at, seq: r.seq, fn: fn, lane: lane + 1})
	r.seq++
}

func (r *refSched) stop() { r.halt = true }

// cellLanes is one fleet cell's lane count: 4 tier links plus 2 per
// client for 32 clients. Its tree pads the lanes to 128 leaves, 7
// levels deep.
const cellLanes = 68

// runLaneWorkload drives d, which has lanes lanes, through a
// deterministic random script. Lane times sit on a coarse grid so that
// heads of different lanes, and heads and events, often share an
// instant and only the seq orders them. Each lane's pushes are monotone
// apart from an occasional earlier insert. A few callbacks call Stop,
// so Run and RunUntil end early and resume; the trace records the clock
// and Pending at every return.
func runLaneWorkload(d laneSched, seed int64, n, lanes int) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var timers []wlTimer
	tail := make([]time.Duration, lanes) // latest record time pushed per lane
	id := 0
	const grid = 250 * time.Microsecond
	delay := func() time.Duration {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return grid * time.Duration(rng.Intn(8))
		case 2:
			return time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		default:
			return time.Duration(rng.Int63n(8)) * tick
		}
	}
	var fire func(myID int) func()
	fire = func(myID int) func() {
		return func() {
			now := d.nowAt()
			trace = append(trace, traceEntry{myID, now, d.eventSeq()})
			live := myID < n*6
			switch r := rng.Intn(16); {
			case r < 2 && live: // spawn a follow-up event
				id++
				d.after(delay(), fire(id))
			case r < 4 && live: // arm a cancellable timer
				id++
				timers = append(timers, d.timer(delay(), fire(id)))
			case r < 5 && len(timers) > 0: // stop one; replace it if it was live
				if timers[rng.Intn(len(timers))].stop() && live {
					id++
					d.after(delay(), fire(id))
				}
			case r < 6:
				d.stop()
			case r < 14 && live: // push records onto a lane
				lane := rng.Intn(lanes)
				for k := rng.Intn(3); k >= 0; k-- {
					at := max(tail[lane], now.Truncate(grid)) + grid*time.Duration(rng.Intn(3))
					if rng.Intn(8) == 0 {
						at = now + grid*time.Duration(rng.Intn(2)) // may land before the tail
					}
					at = max(at, now)
					tail[lane] = max(tail[lane], at)
					id++
					d.push(lane, at, fire(id))
				}
			case r < 15 && len(timers) > 0 && live: // re-arm a timer
				id++
				timers[rng.Intn(len(timers))].rearm(delay(), fire(id))
			}
		}
	}
	for i := 0; i < n; i++ {
		id++
		switch i % 3 {
		case 0:
			timers = append(timers, d.timer(delay(), fire(id)))
		case 1:
			d.after(delay(), fire(id))
		default:
			d.push(i%lanes, grid*time.Duration(rng.Intn(16)), fire(id))
		}
	}
	mark := func() {
		trace = append(trace, traceEntry{id: -1, at: d.nowAt()}, traceEntry{id: -d.pending() - 2})
	}
	for _, deadline := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond} {
		d.runUntil(deadline)
		mark()
	}
	for d.pending() > 0 {
		d.run()
		mark()
	}
	return trace
}

// TestLaneEquivalence pins the lane merge: records retired through
// lanes interleave with events, timers and each other exactly as
// ordinary events with the same seqs fire in the reference scheduler,
// including where Stop ends a run mid-instant. It runs on a one-leaf
// tree, on full and just-grown small trees, and at cell scale.
func TestLaneEquivalence(t *testing.T) {
	n := 48
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for _, lanes := range []int{1, 4, 5, cellLanes} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				ref := runLaneWorkload(&refSched{}, seed, n, lanes)
				got := runLaneWorkload(newRealLaneSched(lanes), seed, n, lanes)
				diffTraces(t, seed, ref, got)
			}
		})
	}
}

// FuzzLaneEquivalence lets the fuzzer hunt for scripts, on 1 to 80
// lanes, where a lane record runs out of the reference's (time, seq)
// order.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3))
	f.Add(int64(42), uint8(64), uint8(cellLanes-1))
	f.Add(int64(-7), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, lanes uint8) {
		size := int(n%96) + 1
		nl := int(lanes%80) + 1
		ref := runLaneWorkload(&refSched{}, seed, size, nl)
		got := runLaneWorkload(newRealLaneSched(nl), seed, size, nl)
		diffTraces(t, seed, ref, got)
	})
}

// TestAddLaneKeepsHeads: registering a lane carries every head already
// reported into the grown tree. Lanes register one at a time, and each
// pushes a record earlier than every record pushed so far and one at a
// shared later instant, so lanes hold heads each time the tree doubles,
// up to 128 leaves at the 65th lane. Every record must retire, in
// (at, seq) order.
func TestAddLaneKeepsHeads(t *testing.T) {
	const lanes = 70
	s := NewScheduler(1)
	type key struct {
		at  time.Duration
		seq uint64
	}
	var ran []key
	retire := func() { ran = append(ran, key{s.Now(), s.EventSeq()}) }
	for i := range lanes {
		l := &testLane{s: s}
		l.id = s.AddLane(l)
		l.push(time.Duration(lanes-i)*time.Millisecond, retire)
		l.push(2*lanes*time.Millisecond, retire)
	}
	s.Run()
	if len(ran) != 2*lanes || s.Retires != 2*lanes {
		t.Fatalf("retired %d records (Retires %d), want %d", len(ran), s.Retires, 2*lanes)
	}
	for i := 1; i < len(ran); i++ {
		if a, b := ran[i-1], ran[i]; b.at < a.at || b.at == a.at && b.seq <= a.seq {
			t.Fatalf("retire %d at (%v, %d) after (%v, %d)", i, b.at, b.seq, a.at, a.seq)
		}
	}
}

// TestLaneEquivalenceAfterReset: a scheduler Reset while every lane
// still holds records leaves a lane tree that merges the next run's
// heads exactly as a fresh scheduler's does.
func TestLaneEquivalenceAfterReset(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		d := newRealLaneSched(4)
		for i := range 40 {
			d.push(i%4, time.Duration(40-i)*time.Millisecond, func() {})
		}
		d.s.RunUntil(15 * time.Millisecond)
		d.s.Reset(1)
		for _, l := range d.lanes {
			l.recs = l.recs[:0]
		}
		ref := runLaneWorkload(&refSched{}, seed, 48, 4)
		got := runLaneWorkload(d, seed, 48, 4)
		diffTraces(t, seed, ref, got)
	}
}

// TestLanePendingAndReset: a lane counts once in Pending while it holds
// records, clearing its head takes it out, and Reset clears every head
// and zeroes the counters while the registration survives.
func TestLanePendingAndReset(t *testing.T) {
	s := NewScheduler(1)
	l := &testLane{s: s}
	l.id = s.AddLane(l)
	ran := 0
	for i := 0; i < 3; i++ {
		l.push(time.Millisecond, func() { ran++ })
	}
	s.After(2*time.Millisecond, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (one event, one lane)", got)
	}
	s.Run()
	if ran != 3 || s.Events != 1 || s.Retires != 3 {
		t.Fatalf("ran %d records, Events %d, Retires %d; want 3, 1, 3", ran, s.Events, s.Retires)
	}
	l.push(5*time.Millisecond, func() { t.Error("record survived Reset") })
	s.Reset(1)
	l.recs = l.recs[:0]
	if s.Pending() != 0 || s.Events != 0 || s.Retires != 0 {
		t.Fatalf("after Reset: Pending %d, Events %d, Retires %d; want 0", s.Pending(), s.Events, s.Retires)
	}
	s.Run()
	l.push(time.Millisecond, func() { ran++ })
	s.Run()
	if ran != 4 || s.Retires != 1 {
		t.Fatalf("after Reset the lane ran %d records, Retires %d; want 4, 1", ran, s.Retires)
	}
}

// TestRunUntilStopKeepsClock: a Stop inside RunUntil leaves the clock
// at the stopping event while an earlier-than-deadline event is still
// pending, so the next run fires it without the clock going backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	s.At(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.Stop()
	})
	s.At(2*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(10 * time.Millisecond)
	if s.Now() != time.Millisecond {
		t.Fatalf("clock after Stop = %v, want 1ms", s.Now())
	}
	s.At(5*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(10 * time.Millisecond)
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock after the resumed RunUntil = %v, want 10ms", s.Now())
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	// A Stop by the last event due still lets the clock reach the
	// deadline: nothing at or before it is left.
	s.At(12*time.Millisecond, func() { s.Stop() })
	s.RunUntil(20 * time.Millisecond)
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
}

// BenchmarkLaneRetire is a synthetic layer bench of the lane merge on a
// cell-sized tree: one op is one retire on 68 lanes, the retiring lane
// reporting its next head, plus one record pushed onto a
// pseudo-randomly chosen lane, up to 1 ms later and not before that
// lane's tail. Two records per lane are in flight on average. Its
// traffic is not calibrated to a cell: the retiring lane stays ahead
// after about 43% of its retires, where the fleets' lanes stay ahead
// after 13-19%. A warm-up run grows every lane's storage first, so even
// one op reports the steady state's allocations.
func BenchmarkLaneRetire(b *testing.B) {
	d := newRealLaneSched(cellLanes)
	x, left := uint64(1), 10000
	var retire func()
	retire = func() {
		if left--; left <= 0 {
			d.s.Stop()
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l := d.lanes[x%cellLanes]
		at := d.s.Now() + time.Duration(x>>32%1000)*time.Microsecond
		if n := len(l.recs); n > 0 {
			at = max(at, l.recs[n-1].at)
		}
		l.push(at, retire)
	}
	for i := range 2 * cellLanes {
		d.push(i%cellLanes, time.Duration(i)*time.Microsecond, retire)
	}
	d.s.Run()
	left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	d.s.Run()
}
