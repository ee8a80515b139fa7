package trace

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
)

// countSink counts captures per direction and Close calls.
type countSink struct {
	down, up, closed int
}

func (c *countSink) Capture(_ time.Duration, d Dir, _ *packet.Segment) {
	if d == Down {
		c.down++
	} else {
		c.up++
	}
}

func (c *countSink) Close() error { c.closed++; return nil }

func TestFanoutReplicatesAndCloses(t *testing.T) {
	a, b := &countSink{}, &countSink{}
	s := Fanout(a, b)
	tap := SinkTap(s, Down)
	tap.Capture(0, dataSeg(1, nil, 10))
	SinkTap(s, Up).Capture(1, ackSeg(100))
	if a.down != 1 || a.up != 1 || b.down != 1 || b.up != 1 {
		t.Fatalf("fanout counts: %+v %+v", a, b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if a.closed != 1 || b.closed != 1 {
		t.Fatal("fanout must close every sink")
	}
	if Fanout(a) != Sink(a) {
		t.Fatal("single-sink fanout must unwrap")
	}
}

func TestSeriesSinkMatchesTraceSeries(t *testing.T) {
	tr := mkTrace()
	s := &Series{}
	for _, r := range tr.Records {
		s.Capture(r.TS, r.Dir, r.Seg)
	}
	want := tr.DownloadSeries()
	if len(s.Download) != len(want) {
		t.Fatalf("download series %d vs %d points", len(s.Download), len(want))
	}
	for i := range want {
		if s.Download[i] != want[i] {
			t.Fatalf("download point %d: %+v vs %+v", i, s.Download[i], want[i])
		}
	}
	wantW := tr.ReceiveWindowSeries()
	if len(s.Windows) != len(wantW) {
		t.Fatalf("window series %d vs %d points", len(s.Windows), len(wantW))
	}
	for i := range wantW {
		if s.Windows[i] != wantW[i] {
			t.Fatalf("window point %d differs", i)
		}
	}
}

func TestStreamPcapMatchesReadPcap(t *testing.T) {
	tr := mkTrace()
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got := &Trace{}
	if err := StreamPcap(bytes.NewReader(buf.Bytes()), [4]byte{10, 0, 0, 1}, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("streamed %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i].Dir != tr.Records[i].Dir || got.Records[i].TS != tr.Records[i].TS {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestPcapSinkStreamsRecords(t *testing.T) {
	tr := mkTrace()
	var direct, streamed bytes.Buffer
	if err := tr.WritePcap(&direct, 0); err != nil {
		t.Fatal(err)
	}
	ps, err := NewPcapSink(&streamed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		ps.Capture(r.TS, r.Dir, r.Seg)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed pcap differs from the recording's WritePcap output")
	}
}

// TestFlowIndexIncremental: the series views must stay correct as
// records are appended after earlier calls, and after truncation.
func TestFlowIndexIncremental(t *testing.T) {
	tr := &Trace{}
	dt, ut := tr.Tap(Down), tr.Tap(Up)
	ut.Capture(0, &packet.Segment{Flow: up, Seq: 9, Flags: packet.FlagSYN, Window: 65536})
	dt.Capture(1, dataSeg(100, nil, 50))
	if pts := tr.DownloadSeries(); len(pts) != 1 || pts[0].Bytes != 50 {
		t.Fatalf("download series = %v", pts)
	}
	// Append after the first views were taken.
	dt.Capture(2, dataSeg(150, nil, 70))
	ut.Capture(3, ackSeg(1000))
	if pts := tr.DownloadSeries(); len(pts) != 2 || pts[1].Bytes != 120 {
		t.Fatalf("download series after append = %v", pts)
	}
	if pts := tr.ReceiveWindowSeries(); len(pts) != 2 || pts[1].Window != 1000 {
		t.Fatalf("window series after append = %v", pts)
	}
	tr.Records = tr.Records[:1]
	if pts := tr.DownloadSeries(); len(pts) != 0 {
		t.Fatalf("download series after truncation = %v", pts)
	}
	if pts := tr.ReceiveWindowSeries(); len(pts) != 1 {
		t.Fatalf("window series after truncation = %v", pts)
	}
}

// TestTraceCaptureCopiesSegment: a recording must survive segment
// recycling — the simulation reuses a delivered struct for the next
// packet, and the recorded copy must keep the original header fields
// and payload.
func TestTraceCaptureCopiesSegment(t *testing.T) {
	tr := &Trace{}
	seg := dataSeg(1000, []byte("HTTP"), 0)
	tr.Capture(time.Millisecond, Down, seg)
	*seg = packet.Segment{Flow: up, Seq: 7} // recycled for another packet
	got := tr.Records[0].Seg
	if got == seg || got.Flow != down || got.Seq != 1000 || string(got.Payload) != "HTTP" {
		t.Fatalf("recorded segment changed with the recycled struct: %+v", got)
	}
	var replayed countSink
	tr.Replay(&replayed)
	if replayed.down != 1 || replayed.up != 0 || replayed.closed != 0 {
		t.Fatalf("Replay fed %+v, want one Down capture and no Close", replayed)
	}
}
