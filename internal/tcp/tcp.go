// Package tcp implements a TCP stack over the simulated network:
// three-way handshake, cumulative and delayed ACKs, flow control with
// a finite receive buffer and advertised windows, slow start,
// congestion avoidance, NewReno-style fast retransmit/fast recovery,
// RFC 6298 retransmission timeouts with exponential backoff, persist
// probes against zero windows, and an optional RFC 5681 idle-window
// reset.
//
// The stack is event-driven and single-threaded on a sim.Scheduler:
// applications interact through non-blocking reads/writes plus
// callbacks, which is what lets the player models in internal/player
// express "pull" pacing (reading slowly so the advertised window
// closes) exactly the way the paper observed Internet Explorer and
// Chrome doing it.
package tcp

import "time"

// Config carries per-connection tunables. Zero fields take defaults.
type Config struct {
	// MSS is the maximum segment payload size. Default 1460.
	MSS int
	// RecvBuf is the receive buffer capacity in bytes, which bounds
	// the advertised window. Default 256 KiB.
	RecvBuf int
	// InitCwndSegs is the initial congestion window in segments.
	// Default 4 (typical for 2011-era server stacks).
	InitCwndSegs int
	// MinRTO and MaxRTO bound the retransmission timeout.
	// Defaults 120 ms and 60 s (a slightly sub-RFC minimum keeps
	// single-RTO silences below the analyzer's OFF threshold, the
	// same loss sensitivity the paper reports in Section 5.1.1).
	MinRTO, MaxRTO time.Duration
	// NoDelayedAck disables the every-other-segment delayed ACK policy
	// (the zero value keeps delayed ACKs on, matching real stacks).
	NoDelayedAck bool
	// AckDelay is the delayed-ACK timer. Default 40 ms.
	AckDelay time.Duration
	// IdleReset, when true, applies the RFC 5681 restart: after an
	// idle period longer than one RTO the congestion window collapses
	// back to the initial window. The paper observes that streaming
	// servers do NOT do this (Section 5.1.5), so the default is false;
	// the ablation benches flip it.
	IdleReset bool
	// CC selects the congestion controller: "reno" (default, also the
	// empty string), "cubic" or "bbr". Validate names with ValidCC;
	// an unknown name panics at connection creation.
	CC string
}

// Defaults returns the configuration used unless a player or service
// overrides specific fields.
func Defaults() Config {
	return Config{
		MSS:          1460,
		RecvBuf:      256 << 10,
		InitCwndSegs: 4,
		MinRTO:       120 * time.Millisecond,
		MaxRTO:       60 * time.Second,
		AckDelay:     40 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.MSS <= 0 {
		c.MSS = d.MSS
	}
	if c.RecvBuf <= 0 {
		c.RecvBuf = d.RecvBuf
	}
	if c.InitCwndSegs <= 0 {
		c.InitCwndSegs = d.InitCwndSegs
	}
	if c.MinRTO <= 0 {
		c.MinRTO = d.MinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = d.MaxRTO
	}
	if c.AckDelay <= 0 {
		c.AckDelay = d.AckDelay
	}
	return c
}

// State is the lifecycle state of a connection.
type State int

// Connection states. The simulator collapses the TIME-WAIT family into
// StateClosed because nothing reuses flows within a session.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateFinWait // our FIN sent, not yet acked
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SYN-SENT"
	case StateSynReceived:
		return "SYN-RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN-WAIT"
	case StateClosed:
		return "CLOSED"
	default:
		return "UNKNOWN"
	}
}

// Stats aggregates per-connection counters used by tests and analysis.
type Stats struct {
	BytesSent      int64 // payload bytes handed to the network (incl. retransmits)
	BytesAcked     int64
	BytesReceived  int64 // in-order payload bytes accepted
	SegmentsSent   int
	Retransmits    int
	Timeouts       int
	FastRetransmit int
	DupAcksSeen    int
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
