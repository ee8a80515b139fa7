// Package abr contains the adaptive-bitrate controllers a segmented
// player consults before every chunk request. A controller sees only
// client-side observables — the playback-buffer level and the measured
// download throughput — and picks a rendition-ladder rung, the
// decision loop the paper's Netflix clients run ("the encoding rates
// of the videos streamed were dependent on the available bandwidth",
// Section 5) and that Akhshabi et al. [11] dissect.
//
// Controllers are deterministic, allocation-free state machines: given
// the same observation sequence they return the same rung sequence, so
// fleet experiments stay bit-reproducible for any worker count.
package abr

// Snapshot is what a controller observes at one decision point.
type Snapshot struct {
	// BufferSec is the playback-buffer level in media seconds.
	BufferSec float64
	// LastChunkBps is the wire throughput of the most recent chunk
	// fetch (0 before the first chunk completes).
	LastChunkBps float64
	// CurrentRung is the ladder index of the previous fetch.
	CurrentRung int
	// Ladder is the rendition ladder, ascending bps.
	Ladder []float64
}

// Controller picks the ladder rung for the next chunk. Implementations
// may keep state (throughput smoothing); one Controller drives one
// session.
type Controller interface {
	// Name labels the policy in results and artifacts.
	Name() string
	// Next returns the ladder index to fetch the next chunk at. The
	// returned index is clamped by the caller; controllers should stay
	// within [0, len(Ladder)).
	Next(s Snapshot) int
}

// clamp bounds rung into the ladder.
func clamp(rung, n int) int {
	if rung < 0 {
		return 0
	}
	if rung >= n {
		return n - 1
	}
	return rung
}

// Fixed is the null controller: it pins one ladder rung regardless of
// conditions — the legacy single-bitrate player expressed in controller
// form. Rung < 0 counts from the top (-1 = top rung).
type Fixed struct {
	Rung int
}

// NewFixed returns a controller pinned to rung (negative = from top).
func NewFixed(rung int) *Fixed { return &Fixed{Rung: rung} }

// Name implements Controller.
func (f *Fixed) Name() string { return "fixed" }

// Next implements Controller.
func (f *Fixed) Next(s Snapshot) int {
	r := f.Rung
	if r < 0 {
		r = len(s.Ladder) + r
	}
	return clamp(r, len(s.Ladder))
}

// safety is the fraction of the estimated throughput a rate-based
// controller is willing to spend on media.
const safety = 0.85

// ewmaWeight is the weight of the newest throughput sample in a
// rate-based controller's estimate. As float64 constants, 1-ewmaWeight
// and ewmaWeight have the same bits as the float64 arithmetic on 0.3.
const ewmaWeight = 0.3

// RateBased picks the highest rung sustainable at a safety fraction
// (85%) of an exponentially weighted moving average of per-chunk
// throughput (newest sample weighted 0.3) — the classic throughput-rule
// controller. It starts at the bottom rung until the first measurement
// exists.
type RateBased struct {
	est float64 // current EWMA, 0 until the first sample
}

// NewRateBased returns a throughput-rule controller.
func NewRateBased() *RateBased { return &RateBased{} }

// Name implements Controller.
func (r *RateBased) Name() string { return "rate" }

// Next implements Controller.
func (r *RateBased) Next(s Snapshot) int {
	if s.LastChunkBps > 0 {
		if r.est == 0 {
			r.est = s.LastChunkBps
		} else {
			r.est = (1-ewmaWeight)*r.est + ewmaWeight*s.LastChunkBps
		}
	}
	if r.est == 0 {
		return 0 // no measurement yet: start safe at the bottom rung
	}
	budget := safety * r.est
	pick := 0
	for i, rate := range s.Ladder {
		if rate <= budget {
			pick = i
		}
	}
	return pick
}

// BBA thresholds (media seconds).
const (
	reservoirSec = 5
	cushionSec   = 20
)

// BufferBased is a BBA-style controller (Huang et al.): the rung is a
// function of the buffer level alone. Below a 5 s reservoir it streams
// the bottom rung; above reservoir plus a 20 s cushion the top rung;
// in between it maps the buffer linearly across the ladder. A
// one-rung-per-decision hysteresis keeps it from oscillating across
// the whole ladder when the buffer swings.
type BufferBased struct{}

// NewBufferBased returns a BBA controller.
func NewBufferBased() *BufferBased { return &BufferBased{} }

// Name implements Controller.
func (b *BufferBased) Name() string { return "buffer" }

// Next implements Controller.
func (b *BufferBased) Next(s Snapshot) int {
	n := len(s.Ladder)
	var want int
	switch {
	case s.BufferSec <= reservoirSec:
		want = 0
	case s.BufferSec >= reservoirSec+cushionSec:
		want = n - 1
	default:
		frac := (s.BufferSec - reservoirSec) / cushionSec
		want = int(frac * float64(n))
	}
	want = clamp(want, n)
	// Hysteresis: move at most one rung upward per decision (downward
	// moves are immediate — draining buffers need fast reaction).
	if want > s.CurrentRung+1 {
		want = s.CurrentRung + 1
	}
	return clamp(want, n)
}
