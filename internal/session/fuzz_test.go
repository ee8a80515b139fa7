package session

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/trace"
)

// wireCheck is a sink that re-serializes every segment it is handed and
// parses it back: whatever StreamPcap accepted from a capture must
// survive AppendWire → Parse with its flow, sequence numbers, flags,
// window and length intact.
type wireCheck struct {
	t   *testing.T
	buf []byte
}

func (w *wireCheck) Capture(_ time.Duration, _ trace.Dir, seg *packet.Segment) {
	w.buf = seg.AppendWire(w.buf[:0])
	got, err := packet.Parse(w.buf)
	if err != nil {
		w.t.Fatalf("re-parsing %v: %v", seg, err)
	}
	if got.Flow != seg.Flow || got.Seq != seg.Seq || got.Ack != seg.Ack ||
		got.Flags != seg.Flags || got.Window != seg.Window || got.Len() != seg.Len() {
		w.t.Fatalf("wire round trip changed the segment: %v -> %v", seg, got)
	}
}

func (w *wireCheck) Close() error { return nil }

// FuzzStreamPcap feeds arbitrary bytes through the path a capture from
// outside the program takes (vanalyze): trace.StreamPcap, pcap.Reader
// and packet.Parse into analysis.Streaming. It must return an error or
// a result, never panic, and every segment that parses must survive a
// wire round trip. The seeds are one short session exported at full
// snaplen and at tcpdump's 96 bytes.
func FuzzStreamPcap(f *testing.F) {
	for _, snaplen := range []int{0, 96} {
		var buf bytes.Buffer
		ps, err := trace.NewPcapSink(&buf, snaplen)
		if err != nil {
			f.Fatal(err)
		}
		Run(Config{
			Video: flashVideo(), Service: YouTube,
			Player: player.NewFlashPlayer(), Network: netem.Residence, Seed: 3,
			Duration: 150 * time.Millisecond, Capture: ps,
		})
		if err := ps.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := analysis.NewStreaming(analysis.Config{})
		err := trace.StreamPcap(bytes.NewReader(data), ClientAddr, trace.Fanout(st, &wireCheck{t: t}))
		if r := st.Result(); err == nil && r == nil {
			t.Fatal("no error and no result")
		}
	})
}
