package player

import "time"

// Metrics is the playback QoE a session accumulated: what the viewer
// experienced, as opposed to what the wire carried. All values are
// derived analytically from the download timeline, so computing them
// perturbs nothing.
type Metrics struct {
	// Started reports whether playback ever began.
	Started bool
	// StartupDelay is the time from player start to first play — the
	// buffer reaching its startup threshold.
	StartupDelay time.Duration
	// Rebuffers counts playback stalls (buffer exhaustion mid-play);
	// RebufferTime is their total duration, including a stall still
	// open at the evaluation time.
	Rebuffers    int
	RebufferTime time.Duration
	// Switches counts rendition-rung changes between consecutive
	// fetches (0 for single-bitrate players).
	Switches int
	// PlayedSec is media seconds actually played.
	PlayedSec float64
	// FetchedSec is media seconds downloaded; FetchedBits is their
	// encoded size in bits, so FetchedBits/FetchedSec is the
	// duration-weighted mean fetched bitrate.
	FetchedSec  float64
	FetchedBits float64
	// RungSec is media seconds fetched per ladder rung (ladder order);
	// nil for single-bitrate players.
	RungSec []float64
}

// MeanFetchedBps returns the duration-weighted mean fetched bitrate,
// 0 when nothing was fetched.
func (m Metrics) MeanFetchedBps() float64 {
	if m.FetchedSec <= 0 {
		return 0
	}
	return m.FetchedBits / m.FetchedSec
}

// PlaybackBuffer models the client's media buffer analytically: media
// seconds are added as bytes (or chunks) arrive and drain at exactly
// one media second per wall second while playing. Every state change
// happens lazily inside the caller's own event — the model schedules
// nothing — so attaching it to a player cannot move a single packet.
// Stall instants that fall between downloads are reconstructed exactly
// from the drain equation (the buffer that had s seconds at time t ran
// dry at t+s).
type PlaybackBuffer struct {
	startupSec float64 // media seconds needed to start or resume play
	rate       float64 // encoded bitrate for byte→seconds conversion

	startAt   time.Duration // player start (t0 of the startup delay)
	lastAt    time.Duration // last observation
	level     float64       // buffered media seconds
	playing   bool
	stalled   bool
	stalledAt time.Duration
	ended     bool // all content fetched: exhaustion is the credits, not a stall

	m Metrics
}

// NewPlaybackBuffer returns a buffer model for a player starting at
// `start`, with the given startup threshold (media seconds) and
// encoded bitrate (bps) used to convert downloaded bytes to media
// seconds.
func NewPlaybackBuffer(start time.Duration, startupSec, bitrate float64) *PlaybackBuffer {
	return &PlaybackBuffer{
		startupSec: startupSec,
		rate:       bitrate,
		startAt:    start,
		lastAt:     start,
	}
}

// SetRate updates the byte→seconds conversion rate (a player whose
// steady-state bitrate differs from the probe's calls this once the
// choice is made).
func (b *PlaybackBuffer) SetRate(bitrate float64) {
	if bitrate > 0 {
		b.rate = bitrate
	}
}

// advance drains the buffer from lastAt to at. A mid-interval
// exhaustion is located exactly and recorded as a stall (unless the
// content has ended).
func (b *PlaybackBuffer) advance(at time.Duration) {
	if at < b.lastAt {
		at = b.lastAt
	}
	if b.playing {
		elapsed := (at - b.lastAt).Seconds()
		if elapsed < b.level {
			b.level -= elapsed
			b.m.PlayedSec += elapsed
		} else {
			b.m.PlayedSec += b.level
			exhaustAt := b.lastAt + time.Duration(b.level*float64(time.Second))
			b.level = 0
			b.playing = false
			if !b.ended {
				b.stalled = true
				b.stalledAt = exhaustAt
				b.m.Rebuffers++
			}
		}
	}
	b.lastAt = at
}

// AddMedia credits sec media seconds (bits encoded bits) fetched at
// rung (-1 for single-bitrate content) at time at, starting or
// resuming playback when the threshold is reached.
func (b *PlaybackBuffer) AddMedia(at time.Duration, sec, bits float64, rung int) {
	if sec <= 0 {
		return
	}
	b.advance(at)
	b.level += sec
	b.m.FetchedSec += sec
	b.m.FetchedBits += bits
	if rung >= 0 {
		for len(b.m.RungSec) <= rung {
			b.m.RungSec = append(b.m.RungSec, 0)
		}
		b.m.RungSec[rung] += sec
	}
	if !b.playing && b.level >= b.startupSec {
		b.playing = true
		if b.stalled {
			b.m.RebufferTime += at - b.stalledAt
			b.stalled = false
		}
		if !b.m.Started {
			b.m.Started = true
			b.m.StartupDelay = at - b.startAt
		}
	}
}

// AddBytes credits n downloaded bytes at the buffer's current encoded
// bitrate — the single-bitrate players' fill path.
func (b *PlaybackBuffer) AddBytes(at time.Duration, n int64) {
	if b.rate <= 0 {
		return
	}
	b.AddMedia(at, float64(n)*8/b.rate, float64(n)*8, -1)
}

// Level returns the buffered media seconds at time at.
func (b *PlaybackBuffer) Level(at time.Duration) float64 {
	b.advance(at)
	return b.level
}

// NoteSwitch records one rendition-rung change.
func (b *PlaybackBuffer) NoteSwitch() { b.m.Switches++ }

// MarkEnded declares the content fully fetched: subsequent buffer
// exhaustion is the end of playback, not a rebuffer.
func (b *PlaybackBuffer) MarkEnded() { b.ended = true }

// QoE evaluates the metrics at time at without mutating the model: a
// stall still open at `at` contributes its elapsed time. A nil buffer
// (a player that never started) reports the zero Metrics.
func (b *PlaybackBuffer) QoE(at time.Duration) Metrics {
	if b == nil {
		return Metrics{}
	}
	c := *b
	c.m.RungSec = append([]float64(nil), b.m.RungSec...)
	c.advance(at)
	m := c.m
	if c.stalled {
		m.RebufferTime += at - c.stalledAt
	}
	return m
}
