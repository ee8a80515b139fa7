package netem

import "repro/internal/packet"

// Switch routes delivered packets to receivers by destination address,
// letting many client hosts share one bottleneck link — the topology
// needed to study how concurrent streaming sessions interact (the
// aggregate-traffic experiments and the paper's future-work question
// about strategy-induced loss). A shared bottleneck is a Path whose
// client side is a Switch: NewPath(sch, p, sw, server).
type Switch struct {
	routes map[[4]byte]Receiver
	// Unrouted counts packets with no matching destination.
	Unrouted int
}

// NewSwitch returns an empty switch.
func NewSwitch() *Switch {
	return &Switch{routes: make(map[[4]byte]Receiver)}
}

// Reset drops every route and zeroes the unrouted counter, keeping
// the map's backing storage for reuse.
func (s *Switch) Reset() {
	clear(s.routes)
	s.Unrouted = 0
}

// Route registers the receiver for a destination address.
func (s *Switch) Route(addr [4]byte, r Receiver) { s.routes[addr] = r }

// Deliver implements Receiver.
func (s *Switch) Deliver(seg *packet.Segment) {
	if r, ok := s.routes[seg.Dst.Addr]; ok {
		r.Deliver(seg)
		return
	}
	s.Unrouted++
}
