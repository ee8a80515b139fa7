package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// segTo builds a payload segment addressed to dst.
func segTo(dst [4]byte, n int) *packet.Segment {
	return &packet.Segment{
		Flow: packet.Flow{
			Src: packet.EP(203, 0, 113, 10, 80),
			Dst: packet.Endpoint{Addr: dst, Port: 4000},
		},
		PayloadLen: n,
	}
}

func TestSwitchRoutesByDestination(t *testing.T) {
	sch := sim.NewScheduler(1)
	a := &collector{sch: sch}
	b := &collector{sch: sch}
	sw := NewSwitch()
	addrA, addrB := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	sw.Route(addrA, a)
	sw.Route(addrB, b)
	sw.Deliver(segTo(addrA, 100))
	sw.Deliver(segTo(addrB, 100))
	sw.Deliver(segTo(addrA, 100))
	if len(a.segs) != 2 || len(b.segs) != 1 {
		t.Fatalf("a got %d, b got %d; want 2 and 1", len(a.segs), len(b.segs))
	}
	if sw.Unrouted != 0 {
		t.Fatalf("Unrouted = %d for fully routed traffic", sw.Unrouted)
	}
}

func TestSwitchCountsUnrouted(t *testing.T) {
	sch := sim.NewScheduler(1)
	a := &collector{sch: sch}
	sw := NewSwitch()
	sw.Route([4]byte{10, 0, 0, 1}, a)
	for i := 0; i < 3; i++ {
		sw.Deliver(segTo([4]byte{10, 9, 9, 9}, 100))
	}
	if sw.Unrouted != 3 {
		t.Fatalf("Unrouted = %d, want 3", sw.Unrouted)
	}
	if len(a.segs) != 0 {
		t.Fatalf("routed receiver got %d stray packets", len(a.segs))
	}
}

// TestSwitchRouteOverwrite: re-registering an address replaces the
// receiver — the last route wins, with no duplicate delivery.
func TestSwitchRouteOverwrite(t *testing.T) {
	sch := sim.NewScheduler(1)
	oldR := &collector{sch: sch}
	newR := &collector{sch: sch}
	sw := NewSwitch()
	addr := [4]byte{10, 0, 0, 7}
	sw.Route(addr, oldR)
	sw.Route(addr, newR)
	sw.Deliver(segTo(addr, 100))
	if len(oldR.segs) != 0 {
		t.Fatal("overwritten route still delivered")
	}
	if len(newR.segs) != 1 {
		t.Fatalf("new route got %d packets, want 1", len(newR.segs))
	}
}

// TestPathSwitchSharedQueue: clients behind a Switch on a path's
// client side share the downstream link's queue and counters, and
// unknown destinations are accounted as unrouted.
func TestPathSwitchSharedQueue(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	a := &collector{sch: sch}
	b := &collector{sch: sch}
	prof := Profile{Name: "test", Down: 8 * Mbps, Up: 8 * Mbps, RTT: 10 * time.Millisecond}
	sw := NewSwitch()
	path := NewPath(sch, prof, sw, server)
	addrA, addrB := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	sw.Route(addrA, a)
	sw.Route(addrB, b)
	path.Down.Send(segTo(addrA, 960))
	path.Down.Send(segTo(addrB, 960))
	path.Down.Send(segTo([4]byte{10, 0, 0, 3}, 960)) // never routed
	sch.Run()
	if len(a.segs) != 1 || len(b.segs) != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", len(a.segs), len(b.segs))
	}
	if sw.Unrouted != 1 {
		t.Fatalf("Unrouted = %d, want 1", sw.Unrouted)
	}
	// Shared serialization: b's packet queued behind a's (1 ms each at
	// 8 Mbps) before the common 5 ms propagation.
	if server.at != nil {
		t.Fatal("server must see nothing on the down link")
	}
	if a.at[0] != 6*time.Millisecond || b.at[0] != 7*time.Millisecond {
		t.Fatalf("arrivals %v / %v, want 6ms / 7ms (shared queue)", a.at[0], b.at[0])
	}
	if path.Down.Sent != 3 {
		t.Fatalf("shared down link sent %d, want 3", path.Down.Sent)
	}
}
