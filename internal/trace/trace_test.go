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
	if len(tr.Records) != 6 {
		t.Fatalf("%d records, want 6", len(tr.Records))
	}
	downs := 0
	for _, r := range tr.Records {
		if r.Dir == Down {
			downs++
		}
	}
	if downs != 4 {
		t.Fatalf("%d Down records, want 4", downs)
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
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(tr.Records))
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
}

func TestDirString(t *testing.T) {
	if Down.String() != "down" || Up.String() != "up" {
		t.Fatal("Dir strings wrong")
	}
}
