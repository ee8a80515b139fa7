// Package packet models the IPv4/TCP segments exchanged by the
// simulated stacks, following the layer/flow/endpoint design of
// gopacket: an Endpoint is a hashable address, a Flow is an ordered
// (src, dst) pair, and Segment is the decoded TCP layer. Segments can
// be serialized to real IPv4+TCP wire bytes (and parsed back), so
// captures written by internal/pcap are readable with tcpdump.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Flag bits of the TCP header we model.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// WindowScale is the fixed window-scale shift both simulated stacks
// use. Real 2011 stacks negotiated scales of 2–8; fixing it keeps the
// wire format parseable without tracking per-connection options while
// still letting us advertise multi-megabyte buffers.
const WindowScale = 6

// Endpoint is an (IPv4 address, TCP port) pair. It is comparable and
// therefore usable as a map key, like gopacket's Endpoint.
type Endpoint struct {
	Addr [4]byte
	Port uint16
}

// EP builds an endpoint from dotted address bytes and a port.
func EP(a, b, c, d byte, port uint16) Endpoint {
	return Endpoint{Addr: [4]byte{a, b, c, d}, Port: port}
}

func (e Endpoint) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", e.Addr[0], e.Addr[1], e.Addr[2], e.Addr[3], e.Port)
}

// Flow identifies the direction of a segment: from Src to Dst.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse returns the flow of the opposite direction.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

func (f Flow) String() string { return f.Src.String() + " -> " + f.Dst.String() }

// Segment is one TCP segment. Payload holds the bytes that are known,
// PayloadLen the length when it exceeds them: a segment Parsed from a
// snaplen-truncated capture record keeps the captured prefix in Payload
// and the IP header's length in PayloadLen, and a synthetic segment may
// carry a length and no bytes at all. Marshal fills the gap with zeros.
type Segment struct {
	Flow
	Seq        uint32
	Ack        uint32
	Flags      uint8
	Window     int // advertised receive window in bytes (pre-scaling)
	Payload    []byte
	PayloadLen int
}

// Len returns the payload length in bytes: the larger of the known
// bytes and PayloadLen.
func (s *Segment) Len() int { return max(len(s.Payload), s.PayloadLen) }

// WireLen returns the serialized size: IPv4 (20) + TCP (20) + payload.
func (s *Segment) WireLen() int { return 40 + s.Len() }

// HasFlag reports whether flag is set.
func (s *Segment) HasFlag(flag uint8) bool { return s.Flags&flag != 0 }

func flagString(f uint8) string {
	out := ""
	if f&FlagSYN != 0 {
		out += "S"
	}
	if f&FlagFIN != 0 {
		out += "F"
	}
	if f&FlagRST != 0 {
		out += "R"
	}
	if f&FlagPSH != 0 {
		out += "P"
	}
	if f&FlagACK != 0 {
		out += "."
	}
	return out
}

func (s *Segment) String() string {
	return fmt.Sprintf("%s Flags [%s] seq %d ack %d win %d len %d",
		s.Flow, flagString(s.Flags), s.Seq, s.Ack, s.Window, s.Len())
}

// Clone returns a deep-enough copy: header fields are copied; the
// payload slice is shared (payload bytes are immutable by convention).
func (s *Segment) Clone() *Segment {
	c := *s
	return &c
}

// Marshal serializes the segment as an IPv4 packet with a TCP header,
// suitable for LINKTYPE_RAW pcap files. The advertised window is
// right-shifted by WindowScale and saturates at 65535.
func (s *Segment) Marshal() []byte { return s.AppendWire(nil) }

// AppendWire appends the segment's wire bytes (see Marshal) to b and
// returns the extended slice, so a caller serializing many packets can
// reuse one buffer. The appended region is cleared first: unset header
// fields and the uncaptured payload tail are zeros.
func (s *Segment) AppendWire(b []byte) []byte {
	n, off := s.Len(), len(b)
	b = slices.Grow(b, 40+n)[:off+40+n]
	buf := b[off:]
	clear(buf)
	// IPv4 header.
	buf[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(buf[2:], uint16(40+n))
	buf[8] = 64 // TTL
	buf[9] = 6  // protocol TCP
	copy(buf[12:16], s.Src.Addr[:])
	copy(buf[16:20], s.Dst.Addr[:])
	binary.BigEndian.PutUint16(buf[10:], ipChecksum(buf[:20]))
	// TCP header.
	tcp := buf[20:]
	binary.BigEndian.PutUint16(tcp[0:], s.Src.Port)
	binary.BigEndian.PutUint16(tcp[2:], s.Dst.Port)
	binary.BigEndian.PutUint32(tcp[4:], s.Seq)
	binary.BigEndian.PutUint32(tcp[8:], s.Ack)
	tcp[12] = 5 << 4 // data offset 5 words
	tcp[13] = s.Flags
	w := s.Window >> WindowScale
	if w > 0xFFFF {
		w = 0xFFFF
	}
	binary.BigEndian.PutUint16(tcp[14:], uint16(w))
	if s.Payload != nil {
		copy(tcp[20:], s.Payload)
	}
	return b
}

var errShort = errors.New("packet: truncated")

// Parse decodes an IPv4+TCP packet produced by Marshal (or a real
// capture with the same fixed 20-byte headers). Truncated payloads are
// accepted — PayloadLen reports the original length from the IP header
// while Payload holds whatever bytes were captured — mirroring how
// snaplen-limited tcpdump captures behave.
func Parse(b []byte) (*Segment, error) {
	if len(b) < 40 {
		return nil, errShort
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("packet: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < 20 || len(b) < ihl+20 {
		return nil, errShort
	}
	if b[9] != 6 {
		return nil, fmt.Errorf("packet: not TCP (protocol %d)", b[9])
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	tcp := b[ihl:]
	off := int(tcp[12]>>4) * 4
	if off < 20 || len(tcp) < off {
		return nil, errShort
	}
	s := &Segment{
		Flow: Flow{
			Src: Endpoint{Port: binary.BigEndian.Uint16(tcp[0:])},
			Dst: Endpoint{Port: binary.BigEndian.Uint16(tcp[2:])},
		},
		Seq:    binary.BigEndian.Uint32(tcp[4:]),
		Ack:    binary.BigEndian.Uint32(tcp[8:]),
		Flags:  tcp[13],
		Window: int(binary.BigEndian.Uint16(tcp[14:])) << WindowScale,
	}
	copy(s.Src.Addr[:], b[12:16])
	copy(s.Dst.Addr[:], b[16:20])
	s.PayloadLen = total - ihl - off
	if s.PayloadLen < 0 {
		s.PayloadLen = 0
	}
	if captured := len(tcp) - off; captured > 0 {
		if captured > s.PayloadLen {
			captured = s.PayloadLen
		}
		s.Payload = tcp[off : off+captured]
	}
	return s, nil
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
