package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

var (
	testClient = packet.EP(10, 0, 0, 1, 40000)
	testServer = packet.EP(203, 0, 113, 10, 80)
	downFlow   = packet.Flow{Src: testServer, Dst: testClient}
	upFlow     = packet.Flow{Src: testClient, Dst: testServer}
)

func dseg(seq uint32, payload []byte, n int) *packet.Segment {
	return &packet.Segment{Flow: downFlow, Seq: seq, Flags: packet.FlagACK, Window: 65536, Payload: payload, PayloadLen: n}
}

// payloadFor makes retransmission content deterministic: the byte at
// absolute sequence s is always f(s), like a real TCP stream.
func payloadFor(seq uint32, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((seq + uint32(i)) * 131)
	}
	return p
}

// reassembleTrace is the buffered reassembly walk over a recording,
// kept as the executable reference for headerAsm: it rebuilds the
// in-order payload of one Down flow up to maxBytes from every captured
// piece. Duplicates collapse, a gap stops the walk, and payload bytes
// a snaplen did not capture render as zeros.
func reassembleTrace(tr *trace.Trace, f packet.Flow, maxBytes int) []byte {
	type piece struct {
		seq     uint32
		payload []byte
		length  int
	}
	var pieces []piece
	var base uint32
	haveBase := false
	for _, r := range tr.Records {
		if r.Dir != trace.Down || r.Seg.Flow != f {
			continue
		}
		if r.Seg.HasFlag(packet.FlagSYN) {
			base = r.Seg.Seq + 1
			haveBase = true
			continue
		}
		if r.Seg.Len() == 0 {
			continue
		}
		if !haveBase {
			base = r.Seg.Seq
			haveBase = true
		}
		pieces = append(pieces, piece{seq: r.Seg.Seq, payload: r.Seg.Payload, length: r.Seg.Len()})
	}
	if len(pieces) == 0 {
		return nil
	}
	sort.SliceStable(pieces, func(i, j int) bool {
		return int32(pieces[i].seq-pieces[j].seq) < 0
	})
	out := make([]byte, 0, maxBytes)
	next := base
	for _, p := range pieces {
		off := int32(p.seq - next)
		if off+int32(p.length) <= 0 {
			continue // fully duplicate
		}
		if off > 0 {
			break // gap: cannot reassemble past it
		}
		skip := int(-off)
		take := p.length - skip
		if take <= 0 {
			continue
		}
		chunk := make([]byte, take)
		if p.payload != nil && skip < len(p.payload) {
			copy(chunk, p.payload[skip:])
		}
		out = append(out, chunk...)
		next += uint32(take)
		if len(out) >= maxBytes {
			return out[:maxBytes]
		}
	}
	return out
}

// TestHeaderAsmMatchesTraceReassemble cross-checks the bounded online
// reassembler against the buffered reassembleTrace walk on randomized
// segment streams: duplicates, partial overlaps, reordering, gaps,
// payload-free (snaplen-truncated) pieces, present or missing SYN.
// Offsets are drawn from the stream's base, the way a sender's stream
// grows, so most trials reassemble something and many reach the
// maxHeaderBytes cap; the trial mix is checked at the end, so the
// comparison cannot drift back to mostly empty outputs.
func TestHeaderAsmMatchesTraceReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const base, trials = uint32(5000), 300
	var empty, partial, full int
	for trial := 0; trial < trials; trial++ {
		tr := &trace.Trace{}
		asm := headerAsm{}
		feed := func(seg *packet.Segment) {
			tr.Capture(time.Duration(len(tr.Records))*time.Millisecond, trace.Down, seg)
			asm.add(seg)
		}
		if rng.Intn(4) > 0 { // usually the SYN is captured
			feed(&packet.Segment{Flow: downFlow, Seq: base - 1, Flags: packet.FlagSYN | packet.FlagACK})
		}
		var segs []*packet.Segment
		sent := 0 // stream bytes sent so far, from the base
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			size := 1 + rng.Intn(1600)
			var off int
			switch r := rng.Intn(10); {
			case r < 6: // the next in-order segment
				off = sent
			case r < 8: // a duplicate or an overlap of what was sent
				off = rng.Intn(sent + 1)
			default: // a gap: a lost segment's worth is skipped
				off = sent + 1 + rng.Intn(1600)
			}
			sent = max(sent, off+size)
			seq := base + uint32(off)
			var payload []byte
			if rng.Intn(5) > 0 {
				payload = payloadFor(seq, size)
				if rng.Intn(8) == 0 && size > 3 {
					payload = payload[:size/2] // snaplen truncation
				}
			}
			segs = append(segs, &packet.Segment{Flow: downFlow, Seq: seq, Flags: packet.FlagACK, Payload: payload, PayloadLen: size})
		}
		if rng.Intn(3) == 0 { // reordering
			rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		}
		for _, seg := range segs {
			feed(seg)
		}
		for _, p := range asm.pieces { // the state stays inside the window
			if off := int32(p.seq - asm.base); off >= maxHeaderBytes || off+p.length <= 0 {
				t.Fatalf("trial %d: kept a piece at offset %d+%d, outside the %d-byte window", trial, off, p.length, maxHeaderBytes)
			}
		}
		want := reassembleTrace(tr, downFlow, maxHeaderBytes)
		got := asm.finish()
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d: online reassembly diverged: want %d bytes, got %d", trial, len(want), len(got))
		}
		switch len(want) {
		case 0:
			empty++
		case maxHeaderBytes:
			full++
		default:
			partial++
		}
	}
	t.Logf("%d trials: %d empty, %d partial, %d full", trials, empty, partial, full)
	if empty > trials/4 || partial < trials/10 || full < trials/10 {
		t.Fatalf("trial mix %d empty, %d partial, %d full of %d: too few exercise the reassembly", empty, partial, full, trials)
	}
}

// TestStreamingNoHandshakeFallback: a capture that starts mid-flow has
// no handshake, so the RTT falls back to 40 ms and the ACK-clock
// samples deferred during the capture must still be credited to the
// right cycles on Close.
func TestStreamingNoHandshakeFallback(t *testing.T) {
	s := NewStreaming(Config{})
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// Cycle 0 (buffering): 3 segments.
	s.Capture(at(0), trace.Down, dseg(1000, nil, 1000))
	s.Capture(at(10), trace.Down, dseg(2000, nil, 1000))
	s.Capture(at(20), trace.Down, dseg(3000, nil, 1000))
	// OFF 300 ms, then cycle 1: two segments inside 40 ms, one after.
	s.Capture(at(320), trace.Down, dseg(4000, nil, 500))
	s.Capture(at(350), trace.Down, dseg(4500, nil, 500))
	s.Capture(at(400), trace.Down, dseg(5000, nil, 500))
	r := s.Result()
	if r.RTT != 40*time.Millisecond {
		t.Fatalf("RTT fallback = %v, want 40ms", r.RTT)
	}
	if len(r.Cycles) != 2 || len(r.FirstRTTBytes) != 1 {
		t.Fatalf("cycles = %d, samples = %v", len(r.Cycles), r.FirstRTTBytes)
	}
	// Window [320, 360]: the 320 and 350 segments, not the 400 one.
	if r.FirstRTTBytes[0] != 1000 {
		t.Fatalf("first-RTT bytes = %d, want 1000", r.FirstRTTBytes[0])
	}
	if r.TotalBytes != 4500 || r.DataSegs != 6 {
		t.Fatalf("accounting: %d bytes, %d segs", r.TotalBytes, r.DataSegs)
	}
}

// TestStreamingRTTFromHandshake: the estimate is the first SYN ->
// SYN-ACK gap, resolved online.
func TestStreamingRTTFromHandshake(t *testing.T) {
	s := NewStreaming(Config{})
	s.Capture(0, trace.Up, &packet.Segment{Flow: upFlow, Seq: 99, Flags: packet.FlagSYN, Window: 65536})
	s.Capture(35*time.Millisecond, trace.Down, &packet.Segment{Flow: downFlow, Seq: 499, Ack: 100, Flags: packet.FlagSYN | packet.FlagACK, Window: 65536})
	s.Capture(40*time.Millisecond, trace.Down, dseg(500, nil, 1000))
	r := s.Result()
	if r.RTT != 35*time.Millisecond {
		t.Fatalf("RTT = %v, want 35ms", r.RTT)
	}
	if r.ConnCount != 1 || r.Packets != 3 {
		t.Fatalf("conns=%d packets=%d", r.ConnCount, r.Packets)
	}
}

// TestStreamingBinnedSeries: SeriesBin aggregates the capture into
// contiguous fixed-width bins with a window envelope.
func TestStreamingBinnedSeries(t *testing.T) {
	s := NewStreaming(Config{SeriesBin: 100 * time.Millisecond})
	s.Capture(10*time.Millisecond, trace.Down, dseg(1000, nil, 700))
	s.Capture(20*time.Millisecond, trace.Up, &packet.Segment{Flow: upFlow, Flags: packet.FlagACK, Window: 64000})
	s.Capture(250*time.Millisecond, trace.Down, dseg(2000, nil, 300))
	s.Capture(260*time.Millisecond, trace.Up, &packet.Segment{Flow: upFlow, Flags: packet.FlagACK, Window: 0})
	r := s.Result()
	if len(r.Bins) != 3 {
		t.Fatalf("bins = %d, want 3 (gap bin included)", len(r.Bins))
	}
	if r.Bins[0].Bytes != 700 || r.Bins[0].Packets != 2 || r.Bins[0].LastWindow != 64000 {
		t.Fatalf("bin 0 = %+v", r.Bins[0])
	}
	if r.Bins[1].Packets != 0 || r.Bins[1].MinWindow != -1 {
		t.Fatalf("gap bin = %+v", r.Bins[1])
	}
	if r.Bins[2].Bytes != 300 || r.Bins[2].MinWindow != 0 {
		t.Fatalf("bin 2 = %+v", r.Bins[2])
	}
}

// TestStreamingIgnoresCapturesAfterClose: Result freezes the analysis.
func TestStreamingIgnoresCapturesAfterClose(t *testing.T) {
	s := NewStreaming(Config{})
	s.Capture(0, trace.Down, dseg(1000, nil, 1000))
	r := s.Result()
	total := r.TotalBytes
	s.Capture(time.Second, trace.Down, dseg(2000, nil, 1000))
	if got := s.Result().TotalBytes; got != total {
		t.Fatalf("capture after close changed the result: %d -> %d", total, got)
	}
}

// TestStreamingFlowTableMatchesMap: the per-flow table with its
// last-flow memo must count exactly what a plain map looked up on every
// packet counts. The flows differ in one field each, arrive in runs of
// random length (so the memo both hits and misses), and their
// sequences regress now and then (retransmissions); Up packets and
// pure ACKs are interleaved.
func TestStreamingFlowTableMatchesMap(t *testing.T) {
	flows := []packet.Flow{
		downFlow,
		{Src: testServer, Dst: packet.EP(10, 0, 0, 1, 40001)},
		{Src: packet.EP(203, 0, 113, 10, 81), Dst: testClient},
		{Src: packet.EP(203, 0, 113, 11, 80), Dst: testClient},
		{Src: testServer, Dst: packet.EP(10, 0, 0, 2, 40000)},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := NewStreaming(Config{})
		seen := map[packet.Flow]bool{}
		high := map[packet.Flow]uint32{}
		next := map[packet.Flow]uint32{}
		var conns, segs, retrans int
		at := time.Duration(0)
		for run := 0; run < 40; run++ {
			f := flows[rng.Intn(len(flows))]
			for k := rng.Intn(6); k >= 0; k-- {
				at += time.Duration(rng.Intn(3000)) * time.Microsecond
				if rng.Intn(5) == 0 {
					s.Capture(at, trace.Up, &packet.Segment{Flow: f.Reverse(), Flags: packet.FlagACK, Window: 65536})
					continue
				}
				n := []int{0, 1, 700, 1460}[rng.Intn(4)]
				seq := next[f]
				if rng.Intn(6) == 0 && seq > 5000 {
					seq -= uint32(rng.Intn(5000)) // regression: a retransmission
				}
				next[f] = max(next[f], seq+uint32(n))
				s.Capture(at, trace.Down, &packet.Segment{Flow: f, Seq: seq, Flags: packet.FlagACK, Window: 65536, PayloadLen: n})

				if !seen[f] {
					seen[f] = true
					conns++
				}
				if n == 0 {
					continue
				}
				segs++
				end := seq + uint32(n)
				if h, ok := high[f]; !ok {
					high[f] = end
				} else if int32(end-h) <= 0 {
					retrans++
				} else {
					high[f] = end
				}
			}
		}
		r := s.Result()
		if r.ConnCount != conns || r.DataSegs != segs || r.Retrans != retrans {
			t.Fatalf("trial %d: conns/segs/retrans = %d/%d/%d, per-packet map says %d/%d/%d",
				trial, r.ConnCount, r.DataSegs, r.Retrans, conns, segs, retrans)
		}
	}
}

// BenchmarkStreamingCapture measures the analyzer's per-packet cost on
// Down data segments of one flow, and of several flows interleaved
// round robin, so every segment misses the last-flow memo. One op is
// one Capture. A handshake on a flow of its own resolves the RTT first,
// so no sample is deferred, and keeps the data flows out of the
// first-flow header reassembly; one warm-up segment per flow enters it
// in the flow table, so even one op reports the steady state.
func BenchmarkStreamingCapture(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			s := NewStreaming(Config{})
			s.Capture(0, trace.Up, &packet.Segment{Flow: upFlow, Seq: 99, Flags: packet.FlagSYN, Window: 65536})
			s.Capture(time.Millisecond, trace.Down, &packet.Segment{Flow: downFlow, Seq: 499, Ack: 100, Flags: packet.FlagSYN | packet.FlagACK, Window: 65536})
			segs := make([]packet.Segment, n)
			for i := range segs {
				dst := packet.EP(10, 0, 1, byte(i), 40000)
				segs[i] = packet.Segment{Flow: packet.Flow{Src: testServer, Dst: dst}, Flags: packet.FlagACK, Window: 65536, PayloadLen: 1460}
			}
			at := 2 * time.Millisecond
			capture := func(i int) {
				seg := &segs[i%n]
				at += 10 * time.Microsecond
				s.Capture(at, trace.Down, seg)
				seg.Seq += 1460
			}
			for i := range n {
				capture(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				capture(i)
			}
		})
	}
}
