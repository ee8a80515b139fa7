package analysis

import (
	"sort"
	"time"

	"repro/internal/media"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Streaming is the online analysis core: a trace.Sink that computes
// the full Result — cycle segmentation, RTT estimation, ACK-clock
// sampling, retransmission counting, media extraction and strategy
// classification — one packet at a time, holding O(flows) state
// instead of the O(packets) buffer the tcpdump-then-analyze pipeline
// needs. Saved captures replay through this same core, so live and
// offline analysis cannot drift apart.
//
// The only unbounded inputs it keeps are (a) per-flow high-water marks
// and (b) ACK-clock samples (16 bytes per data segment) deferred while
// the RTT is still unknown. In any capture that starts before its
// first handshake — which every capture this repository produces does
// — the RTT resolves before the first data segment and (b) stays
// empty; a tcpdump file recorded mid-connection degrades to (b)'s
// 16 bytes per data packet, still an order of magnitude below
// buffering the records themselves. Equivalence with the buffered
// pipeline additionally assumes the first flow's SYN (when captured at
// all) precedes its data, so the header-reassembly base never moves
// backward mid-stream — see headerAsm.
type Streaming struct {
	cfg Config
	res Result

	lastTS  time.Duration
	packets int

	// Flow accounting: each distinct Down flow (ConnCount) gets an index
	// into flows, in order of first appearance, so flows[0] is the first
	// flow. Down segments arrive in runs per flow, so the last flow and
	// its index are checked before the map.
	index    map[packet.Flow]int32
	flows    []flowState
	lastFlow packet.Flow
	lastIdx  int32 // -1 until the first Down segment

	// RTT estimation: client-port -> SYN time, until the first
	// complete handshake resolves the estimate.
	synAt    map[uint16]time.Duration
	rttKnown bool

	// Cycle segmentation.
	lastData time.Duration
	open     bool

	// ACK-clock sampling: a monotone cursor over steady-state cycles,
	// plus samples deferred until the RTT resolves.
	ci      int
	pending []ackSample

	// Media extraction: bounded header reassembly of the first flow.
	asm headerAsm

	// Rendition segmentation: fragment headers observed in Down
	// payloads delimit per-rendition request cycles. Scanning is
	// self-disabling: a capture whose first rungScanBudget data
	// segments carry no fragment header never will (fragment streams
	// announce themselves in segment one), so non-fragment sessions
	// pay nothing past the first window.
	rungMisses int
	rungFound  bool

	done bool
}

// rungScanBudget is how many fragment-header-free data segments the
// analyzer scans before concluding the capture is not a fragment
// stream.
const rungScanBudget = 64

type ackSample struct {
	at time.Duration
	n  int
}

// flowState is one Down flow's sequence high-water mark, for
// retransmission detection; started is set by its first data segment.
type flowState struct {
	high    uint32
	started bool
}

// NewStreaming returns an online analyzer with the given config.
func NewStreaming(cfg Config) *Streaming {
	return &Streaming{
		cfg:     cfg,
		index:   make(map[packet.Flow]int32),
		lastIdx: -1,
		synAt:   make(map[uint16]time.Duration),
	}
}

// Capture implements trace.Sink. Segments are read synchronously and
// never retained (payload slices of the first flow's header window are
// the one exception; their backing arrays are immutable).
func (s *Streaming) Capture(at time.Duration, dir trace.Dir, seg *packet.Segment) {
	if s.done {
		return
	}
	s.lastTS = at
	s.packets++
	if s.cfg.SeriesBin > 0 {
		s.binTick(at, dir, seg)
	}
	if dir == trace.Up {
		if !s.rttKnown && seg.HasFlag(packet.FlagSYN) && !seg.HasFlag(packet.FlagACK) {
			if _, dup := s.synAt[seg.Src.Port]; !dup {
				s.synAt[seg.Src.Port] = at
			}
		}
		return
	}

	fi := s.lastIdx
	if fi < 0 || seg.Flow != s.lastFlow {
		var ok bool
		if fi, ok = s.index[seg.Flow]; !ok {
			fi = int32(len(s.flows))
			s.index[seg.Flow] = fi
			s.flows = append(s.flows, flowState{})
			s.res.ConnCount++
		}
		s.lastFlow, s.lastIdx = seg.Flow, fi
	}
	if !s.rttKnown && seg.HasFlag(packet.FlagSYN) && seg.HasFlag(packet.FlagACK) {
		if t0, ok := s.synAt[seg.Dst.Port]; ok {
			s.resolveRTT(at - t0)
		}
	}
	if fi == 0 {
		s.asm.add(seg)
	}

	n := seg.Len()
	if n == 0 {
		return
	}
	s.res.TotalBytes += int64(n)
	s.rungTick(at, seg, n)

	// Retransmission heuristic: sequence regression per flow.
	s.res.DataSegs++
	end := seg.Seq + uint32(n)
	if fs := &s.flows[fi]; !fs.started {
		fs.high, fs.started = end, true
	} else if int32(end-fs.high) <= 0 {
		s.res.Retrans++
	} else {
		fs.high = end
	}

	// Cycle segmentation. Segments below probeIgnoreBytes never start
	// an ON period: isolated zero-window probes stay part of the
	// surrounding OFF (but still feed the ACK-clock pass, which counts
	// every data segment, exactly like the buffered analyzer).
	probe := n < probeIgnoreBytes && (!s.open || at-s.lastData > offThreshold)
	if !probe {
		if !s.open {
			s.res.Cycles = append(s.res.Cycles, Cycle{Start: at})
			s.open = true
		} else if at-s.lastData > offThreshold {
			cur := &s.res.Cycles[len(s.res.Cycles)-1]
			cur.End = s.lastData
			cur.OffAfter = at - s.lastData
			s.res.Cycles = append(s.res.Cycles, Cycle{Start: at})
			// A steady-state cycle opened: grow its ACK-clock slot.
			s.res.FirstRTTBytes = append(s.res.FirstRTTBytes, 0)
		}
		cur := &s.res.Cycles[len(s.res.Cycles)-1]
		cur.Bytes += int64(n)
		s.lastData = at
	}
	s.ackTick(at, n)
}

// rungTick segments per-rendition request cycles: every MP4 fragment
// header in the downstream payload announces the bitrate the client
// chose for that fragment, and contiguous same-rate stretches fold
// into one RungSpan. Retransmitted headers re-announce the same rate
// and are absorbed by the open span, so the output is insensitive to
// loss.
func (s *Streaming) rungTick(at time.Duration, seg *packet.Segment, n int) {
	if !s.rungFound && s.rungMisses >= rungScanBudget {
		return
	}
	rate := media.FragHeaderRate(seg.Payload)
	if rate > 0 {
		cur := len(s.res.Rungs) - 1
		if cur >= 0 && s.res.Rungs[cur].Bitrate == rate {
			s.res.Rungs[cur].Fragments++
		} else {
			if cur >= 0 {
				s.res.RungSwitches++
			}
			s.res.Rungs = append(s.res.Rungs, RungSpan{Bitrate: rate, Start: at, Fragments: 1})
		}
		s.rungFound = true
	} else if !s.rungFound {
		s.rungMisses++
		return
	}
	if cur := len(s.res.Rungs) - 1; cur >= 0 {
		s.res.Rungs[cur].Bytes += int64(n)
		s.res.Rungs[cur].End = at
	}
}

// ackTick accumulates bytes into the first-RTT window of the current
// steady-state cycle. Before the RTT is known, samples are deferred
// and replayed on resolution; cycle starts never move once created, so
// the replay reproduces the buffered pass exactly.
func (s *Streaming) ackTick(at time.Duration, n int) {
	if !s.rttKnown {
		s.pending = append(s.pending, ackSample{at: at, n: n})
		return
	}
	if len(s.res.Cycles) < 2 {
		return
	}
	steady := s.res.Cycles[1:]
	for s.ci < len(steady) && at > steady[s.ci].Start+s.res.RTT {
		s.ci++
	}
	if s.ci >= len(steady) {
		return
	}
	if c := steady[s.ci]; at >= c.Start && at <= c.Start+s.res.RTT {
		s.res.FirstRTTBytes[s.ci] += int64(n)
	}
}

func (s *Streaming) resolveRTT(rtt time.Duration) {
	s.res.RTT = rtt
	s.rttKnown = true
	s.synAt = nil
	pend := s.pending
	s.pending = nil
	for _, p := range pend {
		s.ackTick(p.at, p.n)
	}
}

// binTick folds the packet into the fixed-width series bins.
func (s *Streaming) binTick(at time.Duration, dir trace.Dir, seg *packet.Segment) {
	i := int(at / s.cfg.SeriesBin)
	for len(s.res.Bins) <= i {
		s.res.Bins = append(s.res.Bins, SeriesBin{
			Start:      time.Duration(len(s.res.Bins)) * s.cfg.SeriesBin,
			MinWindow:  -1,
			LastWindow: -1,
		})
	}
	b := &s.res.Bins[i]
	b.Packets++
	if dir == trace.Down {
		b.Bytes += int64(seg.Len())
	} else {
		if b.MinWindow < 0 || seg.Window < b.MinWindow {
			b.MinWindow = seg.Window
		}
		b.LastWindow = seg.Window
	}
}

// Close implements trace.Sink: it finalizes the Result.
func (s *Streaming) Close() error {
	s.finish()
	return nil
}

// Result finalizes (if Close has not run yet) and returns the
// analysis. The Result is owned by the Streaming value; further
// Capture calls are ignored once it has been produced.
func (s *Streaming) Result() *Result {
	s.finish()
	return &s.res
}

func (s *Streaming) finish() {
	if s.done {
		return
	}
	s.done = true
	if !s.rttKnown {
		// No complete handshake in the capture: the buffered
		// estimator's 40 ms fallback, applied to the deferred samples.
		s.resolveRTT(40 * time.Millisecond)
	}
	r := &s.res
	r.Packets = s.packets
	r.Duration = s.lastTS
	if r.DataSegs > 0 {
		r.RetransRate = float64(r.Retrans) / float64(r.DataSegs)
	}
	if s.open {
		r.Cycles[len(r.Cycles)-1].End = s.lastData
	}
	if len(r.Cycles) == 0 {
		return
	}

	// Phases: buffering ends where the first OFF begins.
	first := r.Cycles[0]
	r.BufferingEnd = first.End
	r.BufferedBytes = first.Bytes
	r.HasSteadyState = len(r.Cycles) > 1

	if r.HasSteadyState {
		steady := r.Cycles[1:]
		var steadyBytes int64
		for _, c := range steady {
			r.Blocks = append(r.Blocks, c.Bytes)
			steadyBytes += c.Bytes
		}
		span := steady[len(steady)-1].End - first.End
		if span > 0 {
			r.SteadyRate = float64(steadyBytes) * 8 / span.Seconds()
		}
	}

	r.Media = mediaFromStream(s.streamPrefix(), len(s.flows) > 0, s.cfg)
	if r.Media.EncodingRate > 0 && r.SteadyRate > 0 {
		r.AccumulationRatio = r.SteadyRate / r.Media.EncodingRate
	}
	r.Strategy = classify(r)
}

// streamPrefix returns the reassembled in-order payload prefix of the
// first Down flow, nil when no flow was seen.
func (s *Streaming) streamPrefix() []byte {
	if len(s.flows) == 0 {
		return nil
	}
	return s.asm.finish()
}

// maxHeaderBytes bounds how much of the first flow the analyzer
// reassembles: the paper's methodology only needs the HTTP response
// header and the container header behind it.
const maxHeaderBytes = 4096

// headerAsm incrementally reassembles the first maxHeaderBytes of one
// flow. It keeps only pieces that can still contribute to that prefix:
// out-of-window and contained duplicates are discarded on arrival, so
// the state is bounded by the window size, not the flow length, while
// finish reproduces the buffered walk over every piece (the tests'
// reassembleTrace) byte for byte.
//
// One divergence is accepted: pieces are filtered against the base
// known at arrival, so a SYN captured only after data that moves the
// base backward (same-4-tuple connection reuse inside one capture)
// cannot resurrect pieces already discarded, where the buffered walk
// — which keeps every piece — could. Captures whose SYNs precede
// their data (all simulator captures, and tcpdump started before the
// connection) are exact.
type headerAsm struct {
	base     uint32
	haveBase bool
	pieces   []asmPiece
}

type asmPiece struct {
	seq     uint32
	length  int32
	payload []byte
}

func (a *headerAsm) add(seg *packet.Segment) {
	if seg.HasFlag(packet.FlagSYN) {
		if base := seg.Seq + 1; !a.haveBase || base != a.base {
			a.base = base
			a.haveBase = true
			a.clip()
		}
		return
	}
	n := seg.Len()
	if n == 0 {
		return
	}
	if !a.haveBase {
		a.base = seg.Seq
		a.haveBase = true
	}
	off := int32(seg.Seq - a.base)
	if int64(off)+int64(n) <= 0 || off >= maxHeaderBytes {
		return // cannot contribute to the header window
	}
	end := seg.Seq + uint32(n)
	for _, p := range a.pieces {
		// Contained in an earlier piece: the stable seq-sorted walk
		// would consume the earlier piece first and skip this one.
		if int32(seg.Seq-p.seq) >= 0 && int32(end-(p.seq+uint32(p.length))) <= 0 {
			return
		}
	}
	a.pieces = append(a.pieces, asmPiece{seq: seg.Seq, length: int32(n), payload: seg.Payload})
}

// clip re-applies the window filter after the base moved (a SYN seen
// mid-flow).
func (a *headerAsm) clip() {
	kept := a.pieces[:0]
	for _, p := range a.pieces {
		off := int32(p.seq - a.base)
		if int64(off)+int64(p.length) <= 0 || off >= maxHeaderBytes {
			continue
		}
		kept = append(kept, p)
	}
	a.pieces = kept
}

// finish runs the buffered reference's stable-sorted merge walk over
// the retained pieces.
func (a *headerAsm) finish() []byte {
	if len(a.pieces) == 0 {
		return nil
	}
	sort.SliceStable(a.pieces, func(i, j int) bool {
		return int32(a.pieces[i].seq-a.pieces[j].seq) < 0
	})
	out := make([]byte, 0, maxHeaderBytes)
	next := a.base
	for _, p := range a.pieces {
		off := int32(p.seq - next)
		if off+p.length <= 0 {
			continue // fully duplicate
		}
		if off > 0 {
			break // gap: cannot reassemble past it
		}
		skip := int(-off)
		take := int(p.length) - skip
		if take <= 0 {
			continue
		}
		chunk := make([]byte, take)
		if p.payload != nil && skip < len(p.payload) {
			copy(chunk, p.payload[skip:])
		}
		out = append(out, chunk...)
		next += uint32(take)
		if len(out) >= maxHeaderBytes {
			return out[:maxHeaderBytes]
		}
	}
	return out
}
