package analysis

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/packet"
	"repro/internal/trace"
)

var (
	client = packet.EP(10, 0, 0, 1, 40000)
	server = packet.EP(203, 0, 113, 10, 80)
	down   = packet.Flow{Src: server, Dst: client}
	up     = packet.Flow{Src: client, Dst: server}
)

// synth builds a trace with a handshake, an HTTP+container response
// header, a buffering burst, then periodic blocks.
type synth struct {
	tr  *trace.Trace
	seq uint32
	now time.Duration
}

func newSynth() *synth {
	s := &synth{tr: &trace.Trace{}, seq: 1000}
	s.tr.Tap(trace.Up).Capture(0, &packet.Segment{Flow: up, Seq: 99, Flags: packet.FlagSYN, Window: 1 << 18})
	s.tr.Tap(trace.Down).Capture(30*time.Millisecond, &packet.Segment{Flow: down, Seq: 999, Ack: 100, Flags: packet.FlagSYN | packet.FlagACK, Window: 1 << 18})
	s.now = 60 * time.Millisecond
	return s
}

// data appends n payload bytes at the current time as MSS segments.
func (s *synth) data(payload []byte, n int, gap time.Duration) {
	if payload != nil {
		s.tr.Tap(trace.Down).Capture(s.now, &packet.Segment{Flow: down, Seq: s.seq, Flags: packet.FlagACK, Payload: payload})
		s.seq += uint32(len(payload))
		s.now += gap
		return
	}
	for n > 0 {
		take := 1460
		if take > n {
			take = n
		}
		s.tr.Tap(trace.Down).Capture(s.now, &packet.Segment{Flow: down, Seq: s.seq, Flags: packet.FlagACK, PayloadLen: take})
		s.seq += uint32(take)
		n -= take
		s.now += gap
	}
}

func (s *synth) idle(d time.Duration) { s.now += d }

// replay analyzes a recorded trace the way the live tap would have:
// every record through the streaming core, in capture order.
func replay(tr *trace.Trace, cfg Config) *Result {
	s := NewStreaming(cfg)
	tr.Replay(s)
	return s.Result()
}

func httpHead(contentLength int64) []byte {
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", contentLength))
}

func flashVideo() media.Video {
	return media.Video{ID: 7, EncodingRate: 1e6, Duration: 300 * time.Second, Container: media.Flash}
}

// buildFlashLike synthesizes a short-ON-OFF session: 5 MB buffering
// burst then 64 kB blocks every 410 ms (1.25x accumulation at 1 Mbps).
func buildFlashLike() *trace.Trace {
	s := newSynth()
	v := flashVideo()
	s.data(append(httpHead(v.Size()), media.EncodeFLVHeader(v)...), 0, time.Millisecond)
	s.data(nil, 5<<20, 120*time.Microsecond) // buffering at ~100 Mbps
	for i := 0; i < 20; i++ {
		s.idle(350 * time.Millisecond)
		s.data(nil, 64<<10, 120*time.Microsecond)
	}
	return s.tr
}

func TestAnalyzeFlashShortOnOff(t *testing.T) {
	r := replay(buildFlashLike(), Config{})
	if r.Strategy != ShortOnOff {
		t.Fatalf("strategy = %v, want Short ON-OFF", r.Strategy)
	}
	if !r.HasSteadyState || len(r.Blocks) != 20 {
		t.Fatalf("blocks = %d, want 20", len(r.Blocks))
	}
	if mb := r.MedianBlock(); mb < 60<<10 || mb > 70<<10 {
		t.Fatalf("median block = %d, want ~64k", mb)
	}
	if r.BufferedBytes < 5<<20 || r.BufferedBytes > 5<<20+128<<10 {
		t.Fatalf("buffered = %d, want ~5 MB", r.BufferedBytes)
	}
	if r.Media.Container != media.Flash || r.Media.RateSource != "header" {
		t.Fatalf("media = %+v", r.Media)
	}
	if r.Media.EncodingRate != 1e6 {
		t.Fatalf("rate = %v", r.Media.EncodingRate)
	}
	// Steady rate: 64 kB per ~410 ms ≈ 1.28 Mbps -> accumulation ≈ 1.28.
	if r.AccumulationRatio < 1.0 || r.AccumulationRatio > 1.6 {
		t.Fatalf("accumulation ratio = %v", r.AccumulationRatio)
	}
	if r.RTT != 30*time.Millisecond {
		t.Fatalf("RTT = %v", r.RTT)
	}
}

func TestAnalyzeNoOnOff(t *testing.T) {
	s := newSynth()
	v := flashVideo()
	s.data(append(httpHead(v.Size()), media.EncodeFLVHeader(v)...), 0, time.Millisecond)
	s.data(nil, 20<<20, 120*time.Microsecond) // whole video at line rate
	r := replay(s.tr, Config{})
	if r.Strategy != NoOnOff {
		t.Fatalf("strategy = %v, want No ON-OFF", r.Strategy)
	}
	if r.HasSteadyState {
		t.Fatal("bulk transfer must have no steady state")
	}
	if len(r.Blocks) != 0 {
		t.Fatalf("blocks = %d", len(r.Blocks))
	}
}

func TestAnalyzeLongOnOff(t *testing.T) {
	s := newSynth()
	v := media.Video{ID: 9, EncodingRate: 1.5e6, Duration: 600 * time.Second, Container: media.HTML5}
	s.data(append(httpHead(v.Size()), media.EncodeWebMHeader(v)...), 0, time.Millisecond)
	s.data(nil, 12<<20, 120*time.Microsecond) // Chrome-like buffering
	for i := 0; i < 5; i++ {
		s.idle(30 * time.Second)
		s.data(nil, 6<<20, 120*time.Microsecond) // blocks > 2.5 MB
	}
	r := replay(s.tr, Config{})
	if r.Strategy != LongOnOff {
		t.Fatalf("strategy = %v, want Long ON-OFF", r.Strategy)
	}
	if mb := r.MedianBlock(); mb < LongCycleBytes {
		t.Fatalf("median block = %d, want > 2.5 MB", mb)
	}
	// WebM fallback: rate from Content-Length / duration.
	if r.Media.RateSource != "content-length" {
		t.Fatalf("rate source = %q", r.Media.RateSource)
	}
	if r.Media.EncodingRate < 1.4e6 || r.Media.EncodingRate > 1.6e6 {
		t.Fatalf("estimated rate = %v, want ~1.5e6", r.Media.EncodingRate)
	}
}

func TestAnalyzeMultipleStrategy(t *testing.T) {
	s := newSynth()
	v := media.Video{ID: 3, EncodingRate: 2e6, Duration: 300 * time.Second, Container: media.HTML5}
	s.data(append(httpHead(v.Size()), media.EncodeWebMHeader(v)...), 0, time.Millisecond)
	s.data(nil, 4<<20, 120*time.Microsecond)
	for i := 0; i < 6; i++ { // iPad-like mix of small and large blocks
		s.idle(2 * time.Second)
		if i%2 == 0 {
			s.data(nil, 512<<10, 120*time.Microsecond)
		} else {
			s.data(nil, 5<<20, 120*time.Microsecond)
		}
	}
	r := replay(s.tr, Config{})
	if r.Strategy != MultipleOnOff {
		t.Fatalf("strategy = %v, want Multiple", r.Strategy)
	}
}

func TestSegmentationOffDurations(t *testing.T) {
	s := newSynth()
	s.data(nil, 1<<20, 120*time.Microsecond)
	s.idle(2 * time.Second)
	s.data(nil, 64<<10, 120*time.Microsecond)
	s.idle(3 * time.Second)
	s.data(nil, 64<<10, 120*time.Microsecond)
	r := replay(s.tr, Config{})
	if len(r.Cycles) != 3 {
		t.Fatalf("cycles = %d, want 3", len(r.Cycles))
	}
	if off := r.Cycles[0].OffAfter; off < 1900*time.Millisecond || off > 2100*time.Millisecond {
		t.Fatalf("first OFF = %v, want ~2s", off)
	}
	if r.Cycles[2].OffAfter != 0 {
		t.Fatal("last cycle must have no OffAfter")
	}
}

func TestSlowStartGapsDoNotSplitBuffering(t *testing.T) {
	// Early RTT-spaced bursts (slow start) must not register as OFF
	// periods with the default 150 ms threshold.
	s := newSynth()
	for burst := 1; burst <= 8; burst *= 2 {
		s.data(nil, burst*1460, 100*time.Microsecond)
		s.idle(80 * time.Millisecond) // RTT-spaced
	}
	s.data(nil, 2<<20, 120*time.Microsecond)
	r := replay(s.tr, Config{})
	if len(r.Cycles) != 1 {
		t.Fatalf("slow-start gaps split the buffering phase into %d cycles", len(r.Cycles))
	}
}

func TestAckClockSamples(t *testing.T) {
	// Construct two ON periods: one blasting a full block within the
	// RTT (no ack clock), one trickling it (ack-clocked).
	s := newSynth() // RTT = 30ms
	s.data(nil, 1<<20, 100*time.Microsecond)
	s.idle(5 * time.Second)
	s.data(nil, 64<<10, 100*time.Microsecond) // 45 segs * 0.1ms = 4.5ms < RTT
	s.idle(5 * time.Second)
	s.data(nil, 64<<10, 5*time.Millisecond) // spread over 220ms >> RTT
	r := replay(s.tr, Config{})
	if len(r.FirstRTTBytes) != 2 {
		t.Fatalf("ack clock samples = %d", len(r.FirstRTTBytes))
	}
	if r.FirstRTTBytes[0] < 60<<10 {
		t.Fatalf("burst block first-RTT bytes = %d, want ~64k", r.FirstRTTBytes[0])
	}
	if r.FirstRTTBytes[1] >= r.FirstRTTBytes[0]/2 {
		t.Fatalf("trickled block should show much smaller first-RTT bytes: %d vs %d",
			r.FirstRTTBytes[1], r.FirstRTTBytes[0])
	}
}

func TestEmptyTrace(t *testing.T) {
	r := replay(&trace.Trace{}, Config{})
	if r.Strategy != StrategyUnknown {
		t.Fatalf("strategy = %v", r.Strategy)
	}
	if r.TotalBytes != 0 || len(r.Cycles) != 0 {
		t.Fatal("empty trace must yield empty result")
	}
}

func TestKnownRateFallback(t *testing.T) {
	s := newSynth()
	s.data([]byte("garbage no http here"), 0, time.Millisecond)
	s.data(nil, 1<<20, 120*time.Microsecond)
	s.idle(time.Second)
	s.data(nil, 64<<10, 120*time.Microsecond)
	r := replay(s.tr, Config{KnownRate: 2e6})
	if r.Media.RateSource != "known" || r.Media.EncodingRate != 2e6 {
		t.Fatalf("media = %+v", r.Media)
	}
	if r.AccumulationRatio == 0 {
		t.Fatal("known rate must enable the accumulation ratio")
	}
}

func TestPlaybackBuffered(t *testing.T) {
	r := replay(buildFlashLike(), Config{})
	// ~5 MB at 1 Mbps ≈ 40 s of playback.
	if pb := r.PlaybackBuffered(); pb < 38 || pb > 46 {
		t.Fatalf("playback buffered = %.1fs, want ~40s", pb)
	}
}

func TestStrategyStrings(t *testing.T) {
	names := map[Strategy]string{
		NoOnOff: "No ON-OFF", ShortOnOff: "Short ON-OFF",
		LongOnOff: "Long ON-OFF", MultipleOnOff: "Multiple", StrategyUnknown: "Unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestResultString(t *testing.T) {
	if replay(buildFlashLike(), Config{}).String() == "" {
		t.Fatal("String must be non-empty")
	}
}
