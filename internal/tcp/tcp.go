// Package tcp implements a TCP stack over the simulated network:
// three-way handshake, cumulative and delayed ACKs, flow control with
// a finite receive buffer and advertised windows, slow start,
// congestion avoidance, NewReno-style fast retransmit/fast recovery,
// RFC 6298 retransmission timeouts with exponential backoff, persist
// probes against zero windows, and an optional RFC 5681 idle-window
// reset.
//
// The segment size, initial window, RTO bounds and delayed-ACK timer
// are package constants, one 2011-era stack for every run; a
// connection's Config chooses only its receive buffer, ACK policy,
// idle restart and congestion controller.
//
// The stack is event-driven and single-threaded on a sim.Scheduler:
// applications interact through non-blocking reads/writes plus
// callbacks, which is what lets the player models in internal/player
// express "pull" pacing (reading slowly so the advertised window
// closes) exactly the way the paper observed Internet Explorer and
// Chrome doing it.
package tcp

import "time"

// Fixed stack parameters. They are the same for every connection the
// simulations open: the paper's traffic comes from ordinary 2011-era
// server and client stacks, and what varies between runs is the
// application above the stack, not the stack itself.
const (
	// mss is the maximum segment payload size.
	mss = 1460
	// initCwnd is the initial congestion window, 4 segments (typical
	// for 2011-era server stacks).
	initCwnd = 4 * mss
	// minRTO and maxRTO bound the retransmission timeout. The
	// slightly sub-RFC minimum keeps single-RTO silences below the
	// analyzer's OFF threshold, the same loss sensitivity the paper
	// reports in Section 5.1.1.
	minRTO = 120 * time.Millisecond
	maxRTO = 60 * time.Second
	// ackDelay is the delayed-ACK timer.
	ackDelay = 40 * time.Millisecond
	// defaultRecvBuf is the receive buffer when Config.RecvBuf is 0.
	defaultRecvBuf = 256 << 10
)

// Config carries what a connection's application chooses: its receive
// buffer, its ACK policy, the idle restart and the congestion
// controller. Zero fields take defaults.
type Config struct {
	// RecvBuf is the receive buffer capacity in bytes, which bounds
	// the advertised window. Default 256 KiB.
	RecvBuf int
	// NoDelayedAck disables the every-other-segment delayed ACK policy
	// (the zero value keeps delayed ACKs on, matching real stacks).
	NoDelayedAck bool
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

func (c Config) withDefaults() Config {
	if c.RecvBuf <= 0 {
		c.RecvBuf = defaultRecvBuf
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
