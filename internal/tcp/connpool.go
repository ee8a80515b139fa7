package tcp

// ConnPool recycles Conn structs across simulations on one worker: a
// fleet cell opens one connection per client plus the server's accept
// side, and rebuilding those structs (send/receive chunk slices,
// reassembly queue, congestion controller) per cell is the largest
// steady-state allocation a recycled cell world would otherwise pay.
// The chunk slices it keeps stay short: a media body is one zero run
// on each side, so a conn holds a few slots per response whatever the
// body's size.
// The pool is attached per host with SetConnPool; both ends of a
// topology share one pool, and the simulation is single-threaded, so
// no locking. Without a pool a host allocates fresh Conns exactly as
// before.
type ConnPool struct {
	free []*Conn
}

// put scrubs a connection and parks it for reuse. Every field is
// zeroed except the buffer slice capacities and the congestion
// controller instance — newConn re-Init's the controller (every
// registered controller's Init assigns all of its state) or replaces
// it when the next connection asks for a different kind. Segments
// parked in the reassembly queue are dropped; the packet pool that
// owns them reclaims them wholesale on its own Reset.
func (p *ConnPool) put(c *Conn) {
	clear(c.sndBuf.chunks)
	sndChunks := c.sndBuf.chunks[:0]
	clear(c.rcvBuf.chunks)
	rcvChunks := c.rcvBuf.chunks[:0]
	clear(c.ooo.entries)
	oooEntries := c.ooo.entries[:0]
	cc := c.cc
	*c = Conn{}
	c.sndBuf.chunks = sndChunks
	c.rcvBuf.chunks = rcvChunks
	c.ooo.entries = oooEntries
	c.cc = cc
	p.free = append(p.free, c)
}

// SetConnPool attaches a connection pool: Conns the host creates are
// drawn from it, and Host.Reset returns them. Both ends of a path may
// share one pool.
func (h *Host) SetConnPool(p *ConnPool) { h.connPool = p }

// takeConn returns a blank Conn, recycled when a pool is attached.
// Pool-drawn conns are tracked so Reset can return them in creation
// order — a deterministic recycle order, independent of map layout.
func (h *Host) takeConn() *Conn {
	c := &Conn{}
	if h.connPool != nil {
		if n := len(h.connPool.free); n > 0 {
			c = h.connPool.free[n-1]
			h.connPool.free = h.connPool.free[:n-1]
		}
		h.created = append(h.created, c)
	}
	return c
}

// resolvedCC maps the empty Config.CC to the default controller name,
// so a recycled conn's controller can be matched against the requested
// kind.
func resolvedCC(name string) string {
	if name == "" {
		return CCReno
	}
	return name
}

// Reset returns the host to the state NewHost produces with the given
// address, recycling every connection it created into the attached
// ConnPool. Listeners, the accept hook, the segment pool, the conn
// pool and the egress link survive — they are per-world wiring,
// installed once. The scheduler must be Reset in the same pass so no
// connection timer survives into the next run.
func (h *Host) Reset(a, b, c, d byte) {
	h.addr = [4]byte{a, b, c, d}
	clear(h.conns)
	h.last = nil
	if h.connPool != nil {
		for i, cn := range h.created {
			h.connPool.put(cn)
			h.created[i] = nil
		}
		h.created = h.created[:0]
	}
	h.nextPort = 40000
	h.nextISS = 10000
	h.retained = false
}

// Release zeroes every connection the host drew from its ConnPool,
// buffers and controller included, and forgets them all, so an
// application that outlives the run holds only empty Conns, which
// reach neither the host, its scheduler nor its pools. The host must
// not be used again.
func (h *Host) Release() {
	for _, c := range h.created {
		*c = Conn{}
	}
	h.created = nil
	clear(h.conns)
	h.last = nil
}
