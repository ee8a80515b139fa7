package trace

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
)

var (
	client = packet.EP(10, 0, 0, 1, 40000)
	server = packet.EP(203, 0, 113, 10, 80)
	down   = packet.Flow{Src: server, Dst: client}
	up     = packet.Flow{Src: client, Dst: server}
)

func dataSeg(seq uint32, payload []byte, n int) *packet.Segment {
	return &packet.Segment{Flow: down, Seq: seq, Flags: packet.FlagACK, Window: 65536, Payload: payload, PayloadLen: n}
}

func ackSeg(win int) *packet.Segment {
	return &packet.Segment{Flow: up, Flags: packet.FlagACK, Window: win}
}

func mkTrace() *Trace {
	t := &Trace{}
	dt := t.Tap(Down)
	ut := t.Tap(Up)
	// handshake
	ut.Capture(0, &packet.Segment{Flow: up, Seq: 99, Flags: packet.FlagSYN, Window: 65536})
	dt.Capture(20*time.Millisecond, &packet.Segment{Flow: down, Seq: 499, Ack: 100, Flags: packet.FlagSYN | packet.FlagACK, Window: 65536})
	// data
	dt.Capture(40*time.Millisecond, dataSeg(500, []byte("HTTP"), 0))
	dt.Capture(45*time.Millisecond, dataSeg(504, nil, 1000))
	ut.Capture(46*time.Millisecond, ackSeg(64000))
	dt.Capture(50*time.Millisecond, dataSeg(1504, nil, 1000))
	return t
}

func TestTraceBasics(t *testing.T) {
	tr := mkTrace()
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Duration() != 50*time.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if got := tr.DownBytes(); got != 2004 {
		t.Fatalf("DownBytes = %d", got)
	}
	flows := tr.Flows()
	if len(flows) != 1 || flows[0] != down {
		t.Fatalf("Flows = %v", flows)
	}
	if got := len(tr.FlowRecords(down, Down)); got != 4 {
		t.Fatalf("down flow records = %d", got)
	}
	if got := len(tr.FlowRecords(down, Up)); got != 2 {
		t.Fatalf("up flow records = %d", got)
	}
}

func TestDownloadSeries(t *testing.T) {
	tr := mkTrace()
	pts := tr.DownloadSeries()
	if len(pts) != 3 {
		t.Fatalf("series len = %d", len(pts))
	}
	if pts[len(pts)-1].Bytes != 2004 {
		t.Fatalf("final cumulative = %d", pts[len(pts)-1].Bytes)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Bytes < pts[i-1].Bytes || pts[i].TS < pts[i-1].TS {
			t.Fatal("series must be nondecreasing")
		}
	}
}

func TestReceiveWindowSeries(t *testing.T) {
	tr := mkTrace()
	pts := tr.ReceiveWindowSeries()
	if len(pts) != 2 {
		t.Fatalf("window series = %d", len(pts))
	}
	if pts[1].Window != 64000 {
		t.Fatalf("window = %d", pts[1].Window)
	}
}

func TestReassembleInOrder(t *testing.T) {
	tr := &Trace{}
	dt := tr.Tap(Down)
	dt.Capture(0, &packet.Segment{Flow: down, Seq: 999, Flags: packet.FlagSYN | packet.FlagACK})
	dt.Capture(1*time.Millisecond, dataSeg(1000, []byte("hello "), 0))
	dt.Capture(2*time.Millisecond, dataSeg(1006, []byte("world"), 0))
	got := tr.Reassemble(down, 100)
	if string(got) != "hello world" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestReassembleDuplicatesAndReordering(t *testing.T) {
	tr := &Trace{}
	dt := tr.Tap(Down)
	dt.Capture(0, &packet.Segment{Flow: down, Seq: 999, Flags: packet.FlagSYN | packet.FlagACK})
	dt.Capture(2*time.Millisecond, dataSeg(1006, []byte("world"), 0))  // arrives early
	dt.Capture(3*time.Millisecond, dataSeg(1000, []byte("hello "), 0)) // the hole
	dt.Capture(4*time.Millisecond, dataSeg(1000, []byte("hello "), 0)) // retransmit
	dt.Capture(5*time.Millisecond, dataSeg(1003, []byte("lo wor"), 0)) // partial overlap
	got := tr.Reassemble(down, 100)
	if string(got) != "hello world" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestReassembleStopsAtGap(t *testing.T) {
	tr := &Trace{}
	dt := tr.Tap(Down)
	dt.Capture(0, &packet.Segment{Flow: down, Seq: 999, Flags: packet.FlagSYN | packet.FlagACK})
	dt.Capture(1*time.Millisecond, dataSeg(1000, []byte("abc"), 0))
	dt.Capture(2*time.Millisecond, dataSeg(1010, []byte("xyz"), 0)) // gap at 1003
	got := tr.Reassemble(down, 100)
	if string(got) != "abc" {
		t.Fatalf("reassembled %q, want stop at gap", got)
	}
}

func TestReassembleMaxBytes(t *testing.T) {
	tr := &Trace{}
	dt := tr.Tap(Down)
	dt.Capture(0, &packet.Segment{Flow: down, Seq: 999, Flags: packet.FlagSYN | packet.FlagACK})
	dt.Capture(1*time.Millisecond, dataSeg(1000, bytes.Repeat([]byte{7}, 100), 0))
	got := tr.Reassemble(down, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
}

func TestPcapRoundTripPreservesDirections(t *testing.T) {
	tr := mkTrace()
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got := &Trace{}
	if err := StreamPcap(&buf, [4]byte{10, 0, 0, 1}, got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), tr.Len())
	}
	for i, r := range got.Records {
		want := tr.Records[i]
		if r.Dir != want.Dir {
			t.Fatalf("record %d direction %v, want %v", i, r.Dir, want.Dir)
		}
		if r.TS != want.TS || r.Seg.Seq != want.Seg.Seq {
			t.Fatalf("record %d mismatch", i)
		}
		if r.Seg.Len() != want.Seg.Len() {
			t.Fatalf("record %d len %d, want %d", i, r.Seg.Len(), want.Seg.Len())
		}
	}
	if got.DownBytes() != tr.DownBytes() {
		t.Fatal("byte accounting differs after round trip")
	}
}

func TestDirString(t *testing.T) {
	if Down.String() != "down" || Up.String() != "up" {
		t.Fatal("Dir strings wrong")
	}
}
