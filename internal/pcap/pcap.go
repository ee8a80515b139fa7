// Package pcap reads and writes libpcap capture files (the classic
// 0xa1b2c3d4 microsecond format, LINKTYPE_RAW) so traces produced by
// the simulator can be inspected with tcpdump/wireshark, and traces
// captured by real tools can be fed to internal/analysis.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
)

const (
	magicMicros  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	// LinkTypeRaw means packets start directly at the IP header.
	LinkTypeRaw = 101
	// DefaultSnapLen mirrors the classic tcpdump -s default used for
	// header-only captures; internal/session captures with a larger
	// value so container headers in early payloads are preserved.
	DefaultSnapLen = 262144
)

// Writer emits a pcap stream. Create with NewWriter.
type Writer struct {
	w       io.Writer
	snaplen int
	hdr     [16]byte
	buf     []byte // WritePacket's wire bytes, reused across packets
	Records int
}

// NewWriter writes the global header and returns a Writer that
// truncates packets to snaplen bytes (0 means DefaultSnapLen).
func NewWriter(w io.Writer, snaplen int) (*Writer, error) {
	if snaplen <= 0 {
		snaplen = DefaultSnapLen
	}
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:], magicMicros)
	binary.LittleEndian.PutUint16(gh[4:], versionMajor)
	binary.LittleEndian.PutUint16(gh[6:], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(gh[16:], uint32(snaplen))
	binary.LittleEndian.PutUint32(gh[20:], LinkTypeRaw)
	if _, err := w.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen}, nil
}

// WritePacket serializes one segment captured at virtual time ts into
// the Writer's reused buffer, so writing a capture does not allocate
// per packet.
func (w *Writer) WritePacket(ts time.Duration, seg *packet.Segment) error {
	w.buf = seg.AppendWire(w.buf[:0])
	return w.WriteRaw(ts, w.buf, len(w.buf))
}

// WriteRaw writes pre-serialized packet bytes with the given original
// length, truncating the stored bytes to snaplen.
func (w *Writer) WriteRaw(ts time.Duration, data []byte, origLen int) error {
	capLen := len(data)
	if capLen > w.snaplen {
		capLen = w.snaplen
		data = data[:capLen]
	}
	sec := uint32(ts / time.Second)
	usec := uint32((ts % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(w.hdr[0:], sec)
	binary.LittleEndian.PutUint32(w.hdr[4:], usec)
	binary.LittleEndian.PutUint32(w.hdr[8:], uint32(capLen))
	binary.LittleEndian.PutUint32(w.hdr[12:], uint32(origLen))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	w.Records++
	return nil
}

// Record is one captured packet returned by Reader.
type Record struct {
	TS      time.Duration
	OrigLen int
	Data    []byte
}

// Reader parses a pcap stream written by Writer (or by tcpdump with
// the same magic and little-endian byte order, including big-endian
// captures via byte-order detection).
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	SnapLen int
	Link    uint32
}

// ErrFormat marks a malformed capture file.
var ErrFormat = errors.New("pcap: bad file format")

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(gh[0:]) {
	case magicMicros:
		order = binary.LittleEndian
	default:
		if binary.BigEndian.Uint32(gh[0:]) == magicMicros {
			order = binary.BigEndian
		} else {
			return nil, ErrFormat
		}
	}
	return &Reader{
		r:       r,
		order:   order,
		SnapLen: int(order.Uint32(gh[16:])),
		Link:    order.Uint32(gh[20:]),
	}, nil
}

// Next returns the next record, or io.EOF at clean end of stream. A
// record longer than the global header's nonzero snaplen (which
// neither tcpdump nor Writer writes), or longer than 256 MB, is
// ErrFormat, refused before its bytes are allocated.
func (r *Reader) Next() (*Record, error) {
	var rh [16]byte
	if _, err := io.ReadFull(r.r, rh[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := r.order.Uint32(rh[0:])
	usec := r.order.Uint32(rh[4:])
	capLen := int(r.order.Uint32(rh[8:]))
	if capLen < 0 || capLen > 256<<20 || r.SnapLen > 0 && capLen > r.SnapLen {
		return nil, ErrFormat
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return nil, fmt.Errorf("pcap: reading %d record bytes: %w", capLen, err)
	}
	return &Record{
		TS:      time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
		OrigLen: int(r.order.Uint32(rh[12:])),
		Data:    data,
	}, nil
}

// ReadAll drains the stream into memory.
func (r *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
