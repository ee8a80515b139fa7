package netem

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// treeAddr numbers tree-test clients 10.0.0.1 upward.
func treeAddr(i int) [4]byte { return [4]byte{10, 0, 0, byte(i + 1)} }

// buildTestTree attaches n collector clients under a lossless tree
// with round rates for exact timing math.
func buildTestTree(sch *sim.Scheduler, n int) (*Tree, *collector, []*collector) {
	server := &collector{sch: sch}
	cfg := TreeConfig{
		Access:        Tier{Down: 8 * Mbps, Up: 8 * Mbps, Delay: 2 * time.Millisecond, Queue: 1 << 20},
		Agg:           Tier{Down: 80 * Mbps, Up: 80 * Mbps, Delay: 1 * time.Millisecond, Queue: 1 << 20},
		Core:          Tier{Down: 800 * Mbps, Up: 800 * Mbps, Delay: 5 * time.Millisecond, Queue: 1 << 20},
		ClientsPerAgg: 2,
	}
	tr := NewTree(sch, cfg, server)
	clients := make([]*collector, n)
	for i := range clients {
		clients[i] = &collector{sch: sch}
		tr.Attach(treeAddr(i), clients[i])
	}
	return tr, server, clients
}

// TestTreeRoutesDownstreamPerClient: a packet injected at the core
// reaches exactly the addressed client, traversing the aggregation
// link and that client's access link (counters prove the path).
func TestTreeRoutesDownstreamPerClient(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 5)
	if tr.Clients() != 5 {
		t.Fatalf("Clients = %d, want 5", tr.Clients())
	}
	tr.CoreDown.Send(segTo(treeAddr(2), 1000))
	sch.Run()
	for i, c := range clients {
		want := 0
		if i == 2 {
			want = 1
		}
		if len(c.segs) != want {
			t.Fatalf("client %d got %d packets, want %d", i, len(c.segs), want)
		}
	}
	if tr.CoreDown.Sent != 1 || tr.AggDown.Sent != 1 || tr.AccessDown[2].Sent != 1 {
		t.Fatalf("tier counters core=%d agg=%d access2=%d, want 1/1/1",
			tr.CoreDown.Sent, tr.AggDown.Sent, tr.AccessDown[2].Sent)
	}
	for i, l := range tr.AccessDown {
		if i != 2 && l.Sent != 0 {
			t.Fatalf("packet leaked into access link %d", i)
		}
	}
	if tr.Unrouted() != 0 {
		t.Fatalf("Unrouted = %d", tr.Unrouted())
	}
}

// TestTreeDownstreamTiming: end-to-end latency is the sum of the three
// serialization times plus the three propagation delays — the hops
// genuinely chain rather than short-circuit.
func TestTreeDownstreamTiming(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 1)
	seg := segTo(treeAddr(0), 960) // WireLen 1000 bytes
	tr.CoreDown.Send(seg)
	sch.Run()
	if len(clients[0].at) != 1 {
		t.Fatalf("client got %d packets", len(clients[0].at))
	}
	wire := seg.WireLen()
	want := (800 * Mbps).TxTime(wire) + 5*time.Millisecond +
		(80 * Mbps).TxTime(wire) + 1*time.Millisecond +
		(8 * Mbps).TxTime(wire) + 2*time.Millisecond
	if got := clients[0].at[0]; got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
}

// TestTreeUpstreamReachesServer: a client transmitting on its access
// uplink reaches the server through its aggregation and core uplinks.
func TestTreeUpstreamReachesServer(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	tr := NewTree(sch, TreeConfig{ClientsPerAgg: 2}, server)
	client := &collector{sch: sch}
	up := tr.Attach(treeAddr(0), client)
	seg := &packet.Segment{Flow: packet.Flow{
		Src: packet.Endpoint{Addr: treeAddr(0), Port: 4000},
		Dst: packet.EP(203, 0, 113, 10, 80),
	}}
	up.Send(seg)
	sch.Run()
	if len(server.segs) != 1 {
		t.Fatalf("server got %d packets, want 1", len(server.segs))
	}
	if tr.AggUp.Sent != 1 || tr.CoreUp.Sent != 1 {
		t.Fatalf("uplink counters agg=%d core=%d, want 1/1", tr.AggUp.Sent, tr.CoreUp.Sent)
	}
}

// TestTreeUnroutedAccounting: packets to unattached addresses are
// counted, not delivered, at the aggregation switch.
func TestTreeUnroutedAccounting(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 2)
	tr.CoreDown.Send(segTo([4]byte{10, 9, 9, 9}, 100))
	sch.Run()
	if tr.Unrouted() != 1 {
		t.Fatalf("Unrouted = %d, want 1", tr.Unrouted())
	}
	if len(clients[0].segs)+len(clients[1].segs) != 0 {
		t.Fatal("unrouted packet was delivered")
	}
}

// TestTreeTapsAttachAtEveryTier: the same capture tap machinery the
// flat topologies use observes any tree hop.
func TestTreeTapsAttachAtEveryTier(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, _ := buildTestTree(sch, 3)
	var core, agg, acc2 int
	tr.CoreDown.AddTap(tapFunc(func(time.Duration, *packet.Segment) { core++ }))
	tr.AggDown.AddTap(tapFunc(func(time.Duration, *packet.Segment) { agg++ }))
	tr.AccessDown[2].AddTap(tapFunc(func(time.Duration, *packet.Segment) { acc2++ }))
	tr.CoreDown.Send(segTo(treeAddr(0), 100))
	tr.CoreDown.Send(segTo(treeAddr(2), 100))
	sch.Run()
	if core != 2 || agg != 2 || acc2 != 1 {
		t.Fatalf("taps saw core=%d agg=%d access2=%d, want 2/2/1", core, agg, acc2)
	}
}

// tapFunc adapts a function to the Tap interface for tests.
type tapFunc func(time.Duration, *packet.Segment)

func (f tapFunc) Capture(at time.Duration, seg *packet.Segment) { f(at, seg) }

// TestTreeDroppedAtTier: an undersized access queue drops there and
// only there, and the per-tier accounting attributes it correctly.
func TestTreeDroppedAtTier(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	cfg := TreeConfig{
		Access: Tier{Down: 1 * Mbps, Up: 1 * Mbps, Delay: time.Millisecond, Queue: 1500},
	}
	tr := NewTree(sch, cfg, server)
	client := &collector{sch: sch}
	tr.Attach(treeAddr(0), client)
	for i := 0; i < 10; i++ {
		tr.CoreDown.Send(segTo(treeAddr(0), 1460))
	}
	sch.Run()
	core, agg, access := tr.DroppedAtTier()
	if core != 0 || agg != 0 {
		t.Fatalf("drops above the bottleneck tier: core=%d agg=%d", core, agg)
	}
	if access == 0 {
		t.Fatal("tight access queue dropped nothing")
	}
	if got := len(client.segs) + access; got != 10 {
		t.Fatalf("delivered+dropped = %d, want 10", got)
	}
}

// allLinks lists every link of the tree, active or spare.
func (t *Tree) allLinks() []*Link {
	links := []*Link{t.CoreDown, t.CoreUp, t.AggDown, t.AggUp}
	links = append(links, t.AccessDown...)
	return append(links, t.AccessUp...)
}

// hopsSent sums Sent over every link of the tree: each accepted
// packet is one hop.
func (t *Tree) hopsSent() int {
	n := 0
	for _, l := range t.allLinks() {
		n += l.Sent
	}
	return n
}

// inFlight sums InFlight over every link of the tree.
func (t *Tree) inFlight() int {
	n := 0
	for _, l := range t.allLinks() {
		n += l.InFlight()
	}
	return n
}

// TestTreeLaneRetiresConserveHops checks a conservation law: every
// packet a tree link accepts is either retired by the scheduler as one
// lane record (delivered to the next hop or the endpoint) or still in
// flight, so the scheduler's retire count equals the links' Sent total
// minus what is in flight — mid-run, at the horizon and once drained.
// Drops never enter a lane: an undersized access queue drops some.
func TestTreeLaneRetiresConserveHops(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	tr := NewTree(sch, TreeConfig{ClientsPerAgg: 2, Access: Tier{Queue: 4000}}, server)
	const clients = 5
	ups := make([]*Link, clients)
	for i := range ups {
		ups[i] = tr.Attach(treeAddr(i), &collector{sch: sch})
	}
	for k := 0; k < 40; k++ {
		at := time.Duration(k) * 700 * time.Microsecond
		i := k % clients
		sch.At(at, func() {
			for range 3 { // the access queue holds two of them
				tr.CoreDown.Send(segTo(treeAddr(i), 1460))
			}
			up := &packet.Segment{Flow: packet.Flow{
				Src: packet.Endpoint{Addr: treeAddr(i), Port: 4000},
				Dst: packet.EP(203, 0, 113, 10, 80),
			}, PayloadLen: 26}
			ups[i].Send(up)
		})
	}
	check := func(when string) {
		t.Helper()
		sent, inFlight := tr.hopsSent(), tr.inFlight()
		if got := int(sch.Retires); got != sent-inFlight {
			t.Fatalf("%s: Retires = %d, want Sent %d - InFlight %d = %d", when, got, sent, inFlight, sent-inFlight)
		}
	}
	sch.RunUntil(15 * time.Millisecond)
	if tr.inFlight() == 0 {
		t.Fatal("nothing in flight mid-run: the check is vacuous")
	}
	check("mid-run")
	sch.RunUntil(30 * time.Millisecond)
	check("horizon")
	sch.Run()
	check("drained")
	if _, _, access := tr.DroppedAtTier(); access == 0 {
		t.Fatal("the tight access queue dropped nothing")
	}
	if sent := tr.hopsSent(); sent != int(sch.Retires) || sch.Pending() != 0 {
		t.Fatalf("drained: Sent %d, Retires %d, Pending %d", sent, sch.Retires, sch.Pending())
	}
}

// hopLoop is BenchmarkTreeHops' closed loop. Every client keeps a fixed
// window of segments cycling: the server answers each ACK it receives
// with a 1500 B data segment to the same client, and the client answers
// each data segment with a 66 B ACK, reusing the same segment struct.
type hopLoop struct {
	tree *Tree
	ups  []*Link
	left int // data segments the server may still send
}

type hopServer struct{ loop *hopLoop }

func (s hopServer) Deliver(seg *packet.Segment) {
	if s.loop.left <= 0 {
		return
	}
	s.loop.left--
	seg.Src, seg.Dst = seg.Dst, seg.Src
	seg.PayloadLen = 1460
	s.loop.tree.CoreDown.Send(seg)
}

type hopClient struct {
	loop *hopLoop
	i    int
}

func (c *hopClient) Deliver(seg *packet.Segment) {
	seg.Src, seg.Dst = seg.Dst, seg.Src
	seg.PayloadLen = 26
	c.loop.ups[c.i].Send(seg)
}

// BenchmarkTreeHops measures the per-hop cost of the link layer and the
// scheduler together: 32 clients under a default Tree, each with four
// segments cycling data down and ACKs up (three hops each way), no
// loss and no queue overflow. One op is one data segment's round trip;
// ns/hop divides the time by the hops counted from the links' Sent
// counters.
func BenchmarkTreeHops(b *testing.B) {
	const clients, window = 32, 4
	sch := sim.NewScheduler(1)
	loop := &hopLoop{}
	loop.tree = NewTree(sch, TreeConfig{}, hopServer{loop})
	for i := 0; i < clients; i++ {
		loop.ups = append(loop.ups, loop.tree.Attach(treeAddr(i), &hopClient{loop: loop, i: i}))
	}
	start := func(rounds int) {
		loop.left = rounds
		for i := 0; i < clients; i++ {
			for k := 0; k < window; k++ {
				s := segTo(treeAddr(i), 26)
				s.Src, s.Dst = s.Dst, s.Src
				loop.ups[i].Send(s)
			}
		}
		sch.Run()
	}
	start(64 * clients) // warm up: grow every ring to its working size
	sent0 := loop.tree.hopsSent()
	b.ReportAllocs()
	b.ResetTimer()
	start(b.N)
	b.StopTimer()
	hops := loop.tree.hopsSent() - sent0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}
