// Streaming capture sinks. The paper's methodology is
// tcpdump-then-analyze; a Sink is the tcpdump-less alternative: it
// observes each packet once, at capture time, so consumers that only
// need derived metrics (internal/analysis.Streaming, series binning,
// live pcap writing) never hold the packets themselves.
package trace

import (
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/pcap"
)

// Sink consumes captured packets of both directions in capture order.
// Capture must not retain seg beyond the call: every session recycles
// segment structs once they are delivered. A sink that keeps packets
// copies the struct, as Trace does; payload bytes are never recycled.
// Close flushes whatever the sink buffers.
type Sink interface {
	Capture(at time.Duration, dir Dir, seg *packet.Segment)
	Close() error
}

// TapDir adapts one direction of a Sink to the netem.Tap interface.
type TapDir struct {
	s Sink
	d Dir
}

// SinkTap returns a single-direction capture tap feeding s, suitable
// for netem's AddTap/AddTaps attachment points.
func SinkTap(s Sink, d Dir) TapDir { return TapDir{s: s, d: d} }

// Capture implements netem.Tap.
func (td TapDir) Capture(at time.Duration, seg *packet.Segment) {
	td.s.Capture(at, td.d, seg)
}

// fanout replicates a capture stream to several sinks in order.
type fanout []Sink

// Fanout combines sinks into one. Zero sinks yield a discard sink; a
// single sink is returned unwrapped.
func Fanout(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return fanout(sinks)
}

// Capture implements Sink.
func (f fanout) Capture(at time.Duration, dir Dir, seg *packet.Segment) {
	for _, s := range f {
		s.Capture(at, dir, seg)
	}
}

// Close implements Sink, returning the first error.
func (f fanout) Close() error {
	var first error
	for _, s := range f {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Series is a streaming sink collecting the two per-packet series the
// figures plot: the cumulative download curve (one point per Down data
// segment) and the advertised receive window (one point per Up
// packet). It holds two machine words per point — no segments — and
// produces exactly what Trace.DownloadSeries/ReceiveWindowSeries
// return for the same capture.
type Series struct {
	Download []DownloadPoint
	Windows  []WindowPoint
	total    int64
}

// Capture implements Sink.
func (s *Series) Capture(at time.Duration, dir Dir, seg *packet.Segment) {
	if dir == Up {
		s.Windows = append(s.Windows, WindowPoint{TS: at, Window: seg.Window})
		return
	}
	if n := seg.Len(); n > 0 {
		s.total += int64(n)
		s.Download = append(s.Download, DownloadPoint{TS: at, Bytes: s.total})
	}
}

// Close implements Sink.
func (s *Series) Close() error { return nil }

// PcapSink writes each captured packet straight to a libpcap stream,
// so exporting a capture does not require buffering it first.
type PcapSink struct {
	w   *pcap.Writer
	err error
}

// NewPcapSink starts a pcap stream on w (snaplen 0 keeps full
// payloads, like session captures).
func NewPcapSink(w io.Writer, snaplen int) (*PcapSink, error) {
	pw, err := pcap.NewWriter(w, snaplen)
	if err != nil {
		return nil, err
	}
	return &PcapSink{w: pw}, nil
}

// Capture implements Sink; the first write error sticks and is
// reported by Close.
func (p *PcapSink) Capture(at time.Duration, _ Dir, seg *packet.Segment) {
	if p.err == nil {
		p.err = p.w.WritePacket(at, seg)
	}
}

// Close implements Sink.
func (p *PcapSink) Close() error { return p.err }

// StreamPcap replays a libpcap capture (ours, or tcpdump's with the
// raw-IP linktype) through a sink without materializing a Trace.
// clientAddr identifies the vantage point so directions can be
// restored. The sink is not closed; the caller finalizes it.
func StreamPcap(r io.Reader, clientAddr [4]byte, s Sink) error {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return err
	}
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		seg, err := packet.Parse(rec.Data)
		if err != nil {
			continue // non-TCP noise in a real capture
		}
		d := Up
		if seg.Dst.Addr == clientAddr {
			d = Down
		}
		s.Capture(rec.TS, d, seg)
	}
}
