// Package trace is the capture layer: packets observed at the client
// vantage point (like tcpdump in the paper's methodology) flow through
// Sinks (sink.go) — the online analyzer, figure series, live pcap
// export. Trace is the one Sink that keeps every packet: a reference
// recording with flow-level views and TCP payload reassembly, for
// tests that replay or inspect a capture after the run.
package trace

import (
	"io"
	"sort"
	"time"

	"repro/internal/packet"
)

// Dir is the packet direction relative to the measured client.
type Dir int

// Directions.
const (
	Down Dir = iota // server -> client (data)
	Up              // client -> server (acks, requests)
)

func (d Dir) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Record is one captured packet.
type Record struct {
	TS  time.Duration
	Dir Dir
	Seg *packet.Segment
}

// Trace is the reference recording: a Sink that keeps every packet,
// so tests can replay a capture, write it as pcap, or inspect its
// flows after the run. Sessions never need one; they stream.
type Trace struct {
	Records []Record
}

// Capture implements Sink: it appends a clone of the segment struct.
// Pools recycle structs, never payload bytes, so the clone stays valid
// after the simulation reuses seg.
func (t *Trace) Capture(at time.Duration, d Dir, seg *packet.Segment) {
	t.Records = append(t.Records, Record{TS: at, Dir: d, Seg: seg.Clone()})
}

// Close implements Sink.
func (t *Trace) Close() error { return nil }

// Replay feeds every record to s in capture order, as the live tap
// did. s is not closed.
func (t *Trace) Replay(s Sink) {
	for _, r := range t.Records {
		s.Capture(r.TS, r.Dir, r.Seg)
	}
}

// Tap returns a capture tap for the given direction, to be attached to
// the corresponding netem link.
func (t *Trace) Tap(d Dir) TapDir { return SinkTap(t, d) }

// Len returns the number of captured packets.
func (t *Trace) Len() int { return len(t.Records) }

// Duration returns the timestamp of the last record.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].TS
}

// DownBytes sums payload bytes in the Down direction.
func (t *Trace) DownBytes() int64 {
	var n int64
	for _, r := range t.Records {
		if r.Dir == Down {
			n += int64(r.Seg.Len())
		}
	}
	return n
}

// Flows returns the distinct Down-direction flows in first-seen order.
func (t *Trace) Flows() []packet.Flow {
	var out []packet.Flow
	seen := map[packet.Flow]bool{}
	for _, r := range t.Records {
		if r.Dir == Down && !seen[r.Seg.Flow] {
			seen[r.Seg.Flow] = true
			out = append(out, r.Seg.Flow)
		}
	}
	return out
}

// FlowRecords returns the records of one Down flow (data) or its
// reverse (acks), in capture order.
func (t *Trace) FlowRecords(f packet.Flow, d Dir) []Record {
	if d == Up {
		f = f.Reverse()
	}
	var out []Record
	for _, r := range t.Records {
		if r.Dir == d && r.Seg.Flow == f {
			out = append(out, r)
		}
	}
	return out
}

// WritePcap serializes the capture as a libpcap file, through the same
// PcapSink a live session exports with.
func (t *Trace) WritePcap(w io.Writer, snaplen int) error {
	ps, err := NewPcapSink(w, snaplen)
	if err != nil {
		return err
	}
	t.Replay(ps)
	return ps.Close()
}

// Reassemble rebuilds the in-order payload byte stream of one Down
// flow up to maxBytes, using sequence numbers (duplicates collapse,
// gaps stop reassembly). Snaplen-truncated payloads contribute the
// bytes that were captured; missing tails render as zeros, mirroring
// what a real trace analyzer can recover.
func (t *Trace) Reassemble(f packet.Flow, maxBytes int) []byte {
	type piece struct {
		seq     uint32
		payload []byte
		length  int
	}
	var pieces []piece
	var base uint32
	haveBase := false
	for _, r := range t.FlowRecords(f, Down) {
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

// DownloadPoint is one step of the cumulative download curve.
type DownloadPoint struct {
	TS    time.Duration
	Bytes int64
}

// DownloadSeries returns the cumulative payload bytes over time across
// all Down flows — the "Download Amount" axis of Figures 2, 6, 7, 10.
func (t *Trace) DownloadSeries() []DownloadPoint {
	var out []DownloadPoint
	var total int64
	for _, r := range t.Records {
		if r.Dir != Down || r.Seg.Len() == 0 {
			continue
		}
		total += int64(r.Seg.Len())
		out = append(out, DownloadPoint{TS: r.TS, Bytes: total})
	}
	return out
}

// WindowPoint is one advertised-window observation from a client ACK.
type WindowPoint struct {
	TS     time.Duration
	Window int
}

// ReceiveWindowSeries extracts the client's advertised receive window
// over time (Figures 2(b) and 6(a)): the Window field of Up packets.
func (t *Trace) ReceiveWindowSeries() []WindowPoint {
	var out []WindowPoint
	for _, r := range t.Records {
		if r.Dir != Up {
			continue
		}
		out = append(out, WindowPoint{TS: r.TS, Window: r.Seg.Window})
	}
	return out
}
