// Package analysis computes the paper's measurement metrics from the
// captured packets alone, mirroring Sections 3–5:
//
//   - ON/OFF cycle segmentation of the downstream data (a silence of
//     more than 150 ms ends an ON period; data segments under 128
//     bytes, zero-window probes, never start one),
//   - phase detection (the buffering phase ends at the start of the
//     first OFF period — the paper's own convention, including its
//     sensitivity to packet loss),
//   - block sizes (bytes per ON period in steady state),
//   - the accumulation ratio (steady-state rate / encoding rate),
//   - encoding-rate recovery from container headers in the payload
//     bytes, with the Content-Length/duration fallback for WebM,
//   - the ACK-clock metric (bytes in the first RTT of each ON period,
//     Figure 9), and
//   - the streaming-strategy classifier (2.5 MB block threshold).
//
// The core is Streaming, an online trace.Sink holding O(flows) state.
// A saved capture is analyzed by streaming it through the same core
// (trace.StreamPcap, or Trace.Replay of a recording), so live and
// offline analysis produce bit-identical Results.
package analysis

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/media"
	"repro/internal/stats"
)

// LongCycleBytes is the paper's block-size boundary between short and
// long ON-OFF cycles (Section 3: 2.5 MB).
const LongCycleBytes = 2500 * 1000

// Fixed cycle-segmentation parameters.
const (
	// offThreshold is the minimum downstream silence that counts as an
	// OFF period. It must exceed the RTT (slow-start gaps) but sit
	// below real OFF periods (0.2–5 s for short cycles).
	offThreshold = 150 * time.Millisecond
	// probeIgnoreBytes: data segments smaller than this do not start a
	// new ON period — they are zero-window keepalive probes, not media
	// blocks.
	probeIgnoreBytes = 128
)

// Config supplies what the analyzer cannot recover from the packets
// (out-of-band video metadata) and the optional binned series. The
// zero value analyzes a capture on its own.
type Config struct {
	// KnownDuration optionally supplies the video duration (the paper
	// used the YouTube API when headers were unusable).
	KnownDuration time.Duration
	// KnownRate optionally supplies the encoding rate out of band.
	KnownRate float64
	// SeriesBin, when positive, makes the analyzer aggregate the
	// download/window series into fixed-width time bins (Result.Bins):
	// the constant-memory form of the figure series, O(duration/bin)
	// instead of O(packets).
	SeriesBin time.Duration
}

// Strategy is the classified streaming strategy of Section 3.
type Strategy int

// The three strategies, plus the iPad's combination (Section 5.1.3)
// and Unknown for empty traces.
const (
	StrategyUnknown Strategy = iota
	NoOnOff
	ShortOnOff
	LongOnOff
	MultipleOnOff
)

func (s Strategy) String() string {
	switch s {
	case NoOnOff:
		return "No ON-OFF"
	case ShortOnOff:
		return "Short ON-OFF"
	case LongOnOff:
		return "Long ON-OFF"
	case MultipleOnOff:
		return "Multiple"
	default:
		return "Unknown"
	}
}

// Cycle is one ON period.
type Cycle struct {
	Start, End time.Duration
	Bytes      int64
	// OffAfter is the silence following this ON period (0 for the
	// last cycle).
	OffAfter time.Duration
}

// MediaInfo is what the analyzer recovered about the content.
type MediaInfo struct {
	Container     media.Container
	EncodingRate  float64 // bps; 0 when unrecoverable
	Duration      time.Duration
	ContentLength int64
	// RateSource records how EncodingRate was obtained: "header",
	// "content-length" (the paper's WebM fallback), "known", or "".
	RateSource string
}

// SeriesBin aggregates the capture over one fixed-width time bin (see
// Config.SeriesBin): downstream payload bytes, packet count, and the
// advertised-window envelope observed in the bin (-1 when no Up packet
// fell into it).
type SeriesBin struct {
	Start      time.Duration
	Bytes      int64
	Packets    int
	MinWindow  int
	LastWindow int
}

// RungSpan is one per-rendition request cycle: a contiguous stretch
// of downstream fragments all encoded at one ladder bitrate,
// recovered from the fragment headers on the wire (the methodology's
// rate-from-headers idea applied to adaptive streams).
type RungSpan struct {
	Bitrate    float64 // bps, from the fragment headers
	Start, End time.Duration
	Bytes      int64
	Fragments  int
}

// Result is the full per-session analysis.
type Result struct {
	Cycles []Cycle

	// Phases (Figure 1 / Section 3).
	BufferingEnd   time.Duration // start of the first OFF period
	BufferedBytes  int64
	HasSteadyState bool

	// Steady state.
	Blocks            []int64 // bytes per steady-state ON period
	SteadyRate        float64 // bps during steady state
	AccumulationRatio float64 // 0 when the encoding rate is unknown

	// ACK-clock samples: bytes observed in the first RTT of each
	// steady-state ON period (Figure 9).
	FirstRTTBytes []int64
	RTT           time.Duration

	Media    MediaInfo
	Strategy Strategy

	// Trace-level accounting.
	TotalBytes  int64
	Duration    time.Duration
	Packets     int // captured packets, both directions
	ConnCount   int
	Retrans     int
	DataSegs    int
	RetransRate float64

	// Bins is the optional binned series (Config.SeriesBin).
	Bins []SeriesBin

	// Rungs are the per-rendition request cycles of an adaptive
	// session (nil when the capture carries no fragment headers);
	// RungSwitches counts rendition changes between adjacent spans.
	Rungs        []RungSpan
	RungSwitches int
}

// mediaFromStream recovers content metadata from the reassembled
// payload prefix of the first flow: HTTP response header, then
// container header. This is the paper's methodology — rate from the
// Flash header, or the Content-Length/duration estimate for WebM.
func mediaFromStream(stream []byte, haveFlow bool, cfg Config) MediaInfo {
	mi := MediaInfo{Duration: cfg.KnownDuration}
	if !haveFlow {
		return applyKnown(mi, cfg)
	}
	idx := bytes.Index(stream, []byte("\r\n\r\n"))
	if idx < 0 {
		return applyKnown(mi, cfg)
	}
	head := stream[:idx]
	body := stream[idx+4:]
	// Pull Content-Length out of the response header.
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("content-length")) {
			fmt.Sscanf(string(bytes.TrimSpace(v)), "%d", &mi.ContentLength)
		}
	}
	info, err := media.ParseHeader(body)
	if err != nil {
		return applyKnown(mi, cfg)
	}
	mi.Container = info.Container
	if info.Duration > 0 {
		mi.Duration = info.Duration
	}
	switch {
	case info.RateValid && info.EncodingRate > 0:
		mi.EncodingRate = info.EncodingRate
		mi.RateSource = "header"
	case mi.ContentLength > 0 && mi.Duration > 0:
		// The WebM fallback: estimate as Content-Length / duration.
		mi.EncodingRate = float64(mi.ContentLength) * 8 / mi.Duration.Seconds()
		mi.RateSource = "content-length"
	}
	return applyKnown(mi, cfg)
}

func applyKnown(mi MediaInfo, cfg Config) MediaInfo {
	if mi.EncodingRate == 0 && cfg.KnownRate > 0 {
		mi.EncodingRate = cfg.KnownRate
		mi.RateSource = "known"
	}
	return mi
}

// classify implements the Section 3 taxonomy. A session with no OFF
// periods is a bulk transfer; otherwise the block sizes decide, with
// MultipleOnOff covering the iPad's mixed behaviour (Section 5.1.3).
func classify(r *Result) Strategy {
	if r.TotalBytes == 0 {
		return StrategyUnknown
	}
	if !r.HasSteadyState {
		return NoOnOff
	}
	// A transfer whose OFF time is negligible relative to its active
	// span is a bulk transfer interrupted by loss-recovery stalls, not
	// a rate-limited stream: still No ON-OFF. (The paper notes its
	// phase detection is sensitive to exactly these artefacts.)
	var totalOff time.Duration
	for _, c := range r.Cycles {
		totalOff += c.OffAfter
	}
	activeSpan := r.Cycles[len(r.Cycles)-1].End - r.Cycles[0].Start
	if activeSpan > 0 && totalOff < activeSpan/10 {
		return NoOnOff
	}
	short, long := 0, 0
	for _, b := range r.Blocks {
		if b < LongCycleBytes {
			short++
		} else {
			long++
		}
	}
	total := short + long
	mixed := short >= 3 && long >= 3 &&
		float64(short)/float64(total) >= 0.15 && float64(long)/float64(total) >= 0.15
	switch {
	case long == 0:
		return ShortOnOff
	case short == 0:
		return LongOnOff
	case mixed:
		return MultipleOnOff
	case float64(long)/float64(total) > 0.5:
		return LongOnOff
	default:
		return ShortOnOff
	}
}

// MedianBlock returns the median steady-state block size in bytes,
// or 0 when there is no steady state.
func (r *Result) MedianBlock() int64 {
	if len(r.Blocks) == 0 {
		return 0
	}
	xs := make([]float64, len(r.Blocks))
	for i, b := range r.Blocks {
		xs[i] = float64(b)
	}
	return int64(stats.Median(xs))
}

// PlaybackBuffered converts the buffered bytes into seconds of
// playback at the recovered encoding rate (Figure 3a's y-axis).
func (r *Result) PlaybackBuffered() float64 {
	if r.Media.EncodingRate <= 0 {
		return 0
	}
	return float64(r.BufferedBytes) * 8 / r.Media.EncodingRate
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d conns, %.2f MB total, buffering %.1fs/%.2f MB, %d blocks (median %.0f kB), accum %.2f, retrans %.2f%%",
		r.Strategy, r.ConnCount, float64(r.TotalBytes)/1e6,
		r.BufferingEnd.Seconds(), float64(r.BufferedBytes)/1e6,
		len(r.Blocks), float64(r.MedianBlock())/1e3, r.AccumulationRatio, r.RetransRate*100)
}
