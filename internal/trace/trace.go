// Package trace is the capture layer: packets observed at the client
// vantage point (like tcpdump in the paper's methodology) flow through
// Sinks (sink.go) — the online analyzer, figure series, live pcap
// export. Trace is the one Sink that keeps every packet: a reference
// recording that tests replay, export as pcap or turn into the
// download and receive-window series after the run.
package trace

import (
	"io"
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
// records after the run. Sessions never need one; they stream.
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
